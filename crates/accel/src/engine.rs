//! The tiled execution engine: runs a network stage-by-stage, handing
//! every off-chip DRAM transaction, with its cycle stamp, to an
//! [`EventSink`] as it is issued.
//!
//! Per the paper's accelerator model (its Figure 1): for each tile the
//! engine loads filter weights and an IFM tile from DRAM into on-chip
//! buffers, performs the MACs on the PE array, keeps intermediate results
//! on chip, and writes only the final (activated, pooled) OFM back to DRAM.
//! Weights are fetched before the input tile, as real designs preload
//! filters — the trace analyzer relies on this only for separating two
//! back-to-back layers that share an input.

// This engine is the *simulated victim*: its secret-dependent control flow
// IS the side channel the repo studies (§3 structure leak, §4 zero-pruning
// leak). Making it constant-trace would erase the phenomenon under
// measurement, so the CT rules are acknowledged file-wide instead.
// lint:allow-module(ct-branch): op/stage dispatch on the secret topology is the §3 leak under study
// lint:allow-module(ct-index): activation buffers are keyed by secret node ids; the resulting DRAM layout is the measured signal
// lint:allow-module(ct-loop): tiling loops trip on secret layer geometry — exactly the inter-transaction timing §3 models
// lint:allow-module(ct-arith): buffer-tiling divisions take secret dims; the victim's latency model includes them

use std::collections::BTreeMap;

use cnnre_nn::layer::PoolKind;
use cnnre_nn::{Network, NodeId, Op};
use cnnre_obs::log_debug;
use cnnre_tensor::Tensor3;
use cnnre_trace::{AccessKind, Cycle, EventSink, MemoryEvent, Trace, TraceBuilder};

use crate::schedule::{Schedule, ScheduleError, Stage, StageKind};
use crate::AccelConfig;

/// Per-stage execution summary (ground-truth side of the simulation;
/// adversaries only get the [`Trace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// Stage name (graph node name of the defining layer).
    pub name: String,
    /// Graph node whose activation this stage produced.
    pub output_node: NodeId,
    /// Cycle at which the stage issued its first transaction.
    pub start_cycle: Cycle,
    /// Cycle after the stage's last transaction / compute burst.
    pub end_cycle: Cycle,
    /// MAC operations executed.
    pub macs: u64,
    /// DRAM read transactions issued.
    pub read_transactions: u64,
    /// DRAM write transactions issued.
    pub write_transactions: u64,
    /// Cycles the PE array was busy, at most `end_cycle - start_cycle`;
    /// the rest of the stage is memory stall.
    pub compute_cycles: u64,
    /// Non-zero elements of the output feature map (known only when the
    /// engine computed values).
    pub ofm_nonzeros: Option<u64>,
}

/// The result of one accelerator run.
#[derive(Debug, Clone)]
pub struct Execution {
    /// The adversary-visible memory trace.
    pub trace: Trace,
    /// The network output (absent in trace-only mode).
    pub output: Option<Tensor3>,
    /// Ground-truth per-stage reports.
    pub stages: Vec<StageReport>,
}

impl Execution {
    /// The report for the stage producing `node`'s activation.
    #[must_use]
    pub fn stage_for(&self, node: NodeId) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.output_node == node)
    }

    /// Total MAC operations across all stages.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.stages.iter().map(|s| s.macs).sum()
    }

    /// A human-readable per-stage table: cycles, MACs, PE utilization and
    /// DRAM traffic — the accelerator-side ground truth an evaluation
    /// section would tabulate.
    #[must_use]
    pub fn summary(&self, pe_count: u64) -> String {
        let mut out = String::from(
            "stage                    cycles        MACs  util%      reads   writes
",
        );
        for s in &self.stages {
            let cycles = (s.end_cycle - s.start_cycle).max(1);
            let util = 100.0 * s.macs as f64 / (cycles * pe_count) as f64;
            out.push_str(&format!(
                "{:<22} {:>8} {:>11} {:>6.1} {:>10} {:>8}
",
                s.name, cycles, s.macs, util, s.read_transactions, s.write_transactions
            ));
        }
        let total_cycles = self
            .stages
            .last()
            .map(|s| s.end_cycle)
            .unwrap_or(0)
            .saturating_sub(self.stages.first().map(|s| s.start_cycle).unwrap_or(0))
            .max(1);
        out.push_str(&format!(
            "total: {} cycles, {} MACs, mean utilization {:.1}%
",
            total_cycles,
            self.total_macs(),
            100.0 * self.total_macs() as f64 / (total_cycles * pe_count) as f64
        ));
        out
    }
}

/// The simulated CNN inference accelerator.
///
/// # Example
///
/// ```
/// use cnnre_accel::{AccelConfig, Accelerator};
/// use cnnre_nn::models::lenet;
/// use cnnre_tensor::Tensor3;
/// use cnnre_tensor::rng::SeedableRng;
///
/// # fn main() -> Result<(), cnnre_accel::ScheduleError> {
/// let mut rng = cnnre_tensor::rng::SmallRng::seed_from_u64(0);
/// let net = lenet(4, 10, &mut rng);
/// let accel = Accelerator::new(AccelConfig::default());
/// let exec = accel.run(&net, &Tensor3::zeros(net.input_shape()))?;
/// assert!(exec.trace.len() > 0);
/// assert_eq!(exec.output.unwrap().len(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Accelerator {
    config: AccelConfig,
}

impl Accelerator {
    /// Creates an accelerator with the given configuration.
    #[must_use]
    pub fn new(config: AccelConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// Runs inference on `input`, producing the output feature map, the
    /// memory trace, and per-stage reports.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] when the network cannot be lowered.
    ///
    /// # Panics
    ///
    /// Panics when `input` does not match the network input shape.
    pub fn run(&self, net: &Network, input: &Tensor3) -> Result<Execution, ScheduleError> {
        let mut span = cnnre_obs::span("accel.run");
        cnnre_obs::stream::start_run("accel.run");
        let schedule = Schedule::plan(net, &self.config)?;
        let acts = net.forward_all(input);
        let (tb, stages) = self.drive(net, &schedule, Some(&acts), self.trace_builder(), &mut span);
        let trace = tb.finish();
        #[cfg(feature = "audit-hooks")]
        audit_finished_trace(&trace);
        Ok(Execution {
            trace,
            output: Some(acts[net.output().index()].clone()),
            stages,
        })
    }

    /// Emits the memory trace and timing without computing any values —
    /// fast structure-side experiments on full-scale networks.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] when the network cannot be lowered, or
    /// [`ScheduleError::InvalidConfig`] when zero pruning is enabled (the
    /// pruned trace depends on data values).
    pub fn run_trace_only(&self, net: &Network) -> Result<Execution, ScheduleError> {
        if self.config.zero_pruning {
            return Err(ScheduleError::InvalidConfig(
                "trace-only runs require zero_pruning = false (the pruned trace depends on values)"
                    .to_string(),
            ));
        }
        let mut span = cnnre_obs::span("accel.run_trace_only");
        cnnre_obs::stream::start_run("accel.run_trace_only");
        let schedule = Schedule::plan(net, &self.config)?;
        let (tb, stages) = self.drive(net, &schedule, None, self.trace_builder(), &mut span);
        let trace = tb.finish();
        #[cfg(feature = "audit-hooks")]
        audit_finished_trace(&trace);
        Ok(Execution {
            trace,
            output: None,
            stages,
        })
    }

    /// Runs inference on `input` and hands each DRAM transaction to `sink`
    /// as it is issued, the way a bus-snooping adversary sees it; no trace
    /// is stored. `schedule` is planned once from `net` under this
    /// accelerator's configuration and reused across runs.
    ///
    /// Under `audit-hooks` the run is also recorded and audited like
    /// [`Accelerator::run`]'s.
    ///
    /// # Panics
    ///
    /// Panics when `input` does not match the network input shape or
    /// `schedule` was not planned from `net`.
    pub fn run_streamed<S: EventSink>(
        &self,
        net: &Network,
        schedule: &Schedule,
        input: &Tensor3,
        sink: &mut S,
    ) {
        let mut span = cnnre_obs::span("accel.run");
        cnnre_obs::stream::start_run("accel.run");
        let acts = net.forward_all(input);
        #[cfg(feature = "audit-hooks")]
        {
            let tee = Tee {
                sink,
                copy: self.trace_builder(),
            };
            let (tee, _) = self.drive(net, schedule, Some(&acts), tee, &mut span);
            audit_finished_trace(&tee.copy.finish());
        }
        #[cfg(not(feature = "audit-hooks"))]
        self.drive(net, schedule, Some(&acts), sink, &mut span);
    }

    fn trace_builder(&self) -> TraceBuilder {
        TraceBuilder::new(self.config.block_bytes, self.config.element_bytes)
    }

    /// Executes `sched` into `sink`, attaching the run's cycles to `span`.
    fn drive<S: EventSink>(
        &self,
        net: &Network,
        sched: &Schedule,
        acts: Option<&[Tensor3]>,
        sink: S,
        span: &mut cnnre_obs::SpanGuard,
    ) -> (S, Vec<StageReport>) {
        let mut runner = Runner::new(net, &self.config, sched, acts, sink);
        runner.execute();
        span.add_cycles(runner.cycle);
        (runner.sink, runner.reports)
    }
}

/// The `audit-hooks` sink of [`Accelerator::run_streamed`]: passes each
/// event on and keeps a copy for [`audit_finished_trace`].
#[cfg(feature = "audit-hooks")]
struct Tee<S> {
    sink: S,
    copy: TraceBuilder,
}

#[cfg(feature = "audit-hooks")]
impl<S: EventSink> EventSink for Tee<S> {
    fn push(&mut self, event: MemoryEvent) {
        self.copy.push(event);
        self.sink.push(event);
    }
}

/// `audit-hooks` sanitizer: every trace the engine emits must satisfy the
/// structural segmentation invariants *and* the engine's own region model
/// (block-aligned transactions, per-segment write extents disjoint from
/// reads). Public under the feature so tests can aim it at deliberately
/// corrupted traces.
///
/// # Panics
///
/// Panics when the trace violates any audited invariant.
#[cfg(feature = "audit-hooks")]
pub fn audit_finished_trace(trace: &cnnre_trace::Trace) {
    use cnnre_trace::audit;
    // The sanitizer re-runs segmentation; suppress its telemetry so the
    // attack's own event stream sees each layer boundary exactly once.
    let _quiet = cnnre_obs::stream::suppress();
    // Asserts T001/T010-T012 internally via the trace-side hook.
    let segments = cnnre_trace::segment::segment_trace(trace);
    let mut violations = audit::audit_alignment(trace);
    violations.extend(audit::audit_region_overlap(trace, &segments));
    assert!(
        violations.is_empty(),
        "engine trace audit failed ({} violation(s)):\n{}",
        violations.len(),
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

struct Runner<'a, S> {
    net: &'a Network,
    cfg: &'a AccelConfig,
    sched: &'a Schedule,
    acts: Option<&'a [Tensor3]>,
    sink: S,
    cycle: Cycle,
    /// Non-zero prefix sums of pruned feature maps, by producing node index.
    prefix: BTreeMap<usize, Vec<u32>>,
    reads: u64,
    writes: u64,
    tile_refills: u64,
    ofm_emitted: u64,
    ofm_pruned: u64,
    /// Compute-busy cycles of the stage currently executing.
    stage_compute: u64,
    reports: Vec<StageReport>,
}

impl<'a, S: EventSink> Runner<'a, S> {
    fn new(
        net: &'a Network,
        cfg: &'a AccelConfig,
        sched: &'a Schedule,
        acts: Option<&'a [Tensor3]>,
        sink: S,
    ) -> Self {
        Self {
            net,
            cfg,
            sched,
            acts,
            sink,
            cycle: 0,
            prefix: BTreeMap::new(),
            reads: 0,
            writes: 0,
            tile_refills: 0,
            ofm_emitted: 0,
            ofm_pruned: 0,
            stage_compute: 0,
            reports: Vec::new(),
        }
    }

    fn execute(&mut self) {
        self.stage_host_input();
        for stage in self.sched.stages() {
            self.run_stage(stage);
        }
        // The run's tallies reach the registry once, and only while
        // observability is on: a disabled run looks nothing up.
        if cnnre_obs::enabled() {
            let reg = cnnre_obs::global();
            reg.counter("accel.dram.reads").add(self.reads);
            reg.counter("accel.dram.writes").add(self.writes);
            reg.counter("accel.tiles.refills").add(self.tile_refills);
            reg.counter("accel.ofm.elems_emitted").add(self.ofm_emitted);
            reg.counter("accel.ofm.elems_pruned").add(self.ofm_pruned);
        }
    }

    /// The host stages the (unencrypted-size, adversary-known) input feature
    /// map into DRAM.
    fn stage_host_input(&mut self) {
        let region = self.sched.input_region().clone();
        self.emit(region.base, region.len_bytes, AccessKind::Write);
    }

    /// Emits transactions covering the byte range into the sink, advancing
    /// the cycle per block.
    fn emit(&mut self, start: u64, len_bytes: u64, kind: AccessKind) {
        if len_bytes == 0 {
            return;
        }
        let blk = self.cfg.block_bytes;
        let first = start / blk;
        let last = (start + len_bytes - 1) / blk;
        for b in first..=last {
            self.sink.push(MemoryEvent {
                cycle: self.cycle,
                addr: b * blk,
                kind,
            });
            self.cycle += self.cfg.mem_cycles_per_block;
            match kind {
                AccessKind::Read => self.reads += 1,
                AccessKind::Write => self.writes += 1,
            }
        }
    }

    /// Reads elements `range` (flat indices) of the feature map produced at
    /// `node`, following concat slices and compressed (pruned) storage.
    fn read_fmap_range(&mut self, node: NodeId, range: core::ops::Range<usize>) {
        if range.is_empty() {
            return;
        }
        let n = self.net.node(node);
        match n.op {
            Op::Flatten => self.read_fmap_range(n.inputs[0], range),
            Op::Concat => {
                let mut offset = 0usize;
                let inputs = n.inputs.clone();
                for inp in inputs {
                    let len = self.net.shape(inp).len();
                    let lo = range.start.max(offset);
                    let hi = range.end.min(offset + len);
                    if lo < hi {
                        self.read_fmap_range(inp, lo - offset..hi - offset);
                    }
                    offset += len;
                }
            }
            _ => {
                let binding = self
                    .sched
                    .binding(node)
                    // lint:allow(panic): Schedule::plan binds every fmap node of
                    // the net it was planned from — run() plans before executing
                    .unwrap_or_else(|| panic!("no binding for fmap node {}", n.name));
                let elem = self.cfg.element_bytes;
                if let Some(pfx) = self.prefix.get(&node.index()) {
                    let a = u64::from(pfx[range.start]);
                    let b = u64::from(pfx[range.end]);
                    self.emit(binding.base + a * elem, (b - a) * elem, AccessKind::Read);
                } else {
                    self.emit(
                        binding.base + range.start as u64 * elem,
                        (range.end - range.start) as u64 * elem,
                        AccessKind::Read,
                    );
                }
            }
        }
    }

    /// Writes elements `range` (flat indices) of the feature map produced at
    /// `node` (compressed when pruning is active).
    fn write_fmap_range(&mut self, node: NodeId, range: core::ops::Range<usize>) {
        if range.is_empty() {
            return;
        }
        let binding = self
            .sched
            .binding(node)
            // lint:allow(panic): Schedule::plan binds every fmap node of the
            // net it was planned from — run() plans before executing
            .unwrap_or_else(|| panic!("no binding for fmap node {}", self.net.node(node).name));
        let elem = self.cfg.element_bytes;
        if let Some(pfx) = self.prefix.get(&node.index()) {
            let a = u64::from(pfx[range.start]);
            let b = u64::from(pfx[range.end]);
            self.ofm_emitted += b - a;
            self.ofm_pruned += range.len() as u64 - (b - a);
            self.emit(binding.base + a * elem, (b - a) * elem, AccessKind::Write);
        } else {
            self.ofm_emitted += range.len() as u64;
            self.emit(
                binding.base + range.start as u64 * elem,
                (range.end - range.start) as u64 * elem,
                AccessKind::Write,
            );
        }
    }

    /// Registers the pruned (compressed) layout of a stage output before its
    /// writes are emitted.
    fn register_pruned_output(&mut self, node: NodeId) {
        let Some(acts) = self.acts else { return };
        if !self.cfg.zero_pruning {
            return;
        }
        let values = acts[node.index()].as_slice();
        let mut pfx = Vec::with_capacity(values.len() + 1);
        let mut count = 0u32;
        pfx.push(0);
        for &v in values {
            // lint:allow(float-eq): zero-pruning keys on bit-exact 0.0, the
            // value ReLU produces; no rounding is involved.
            if v != 0.0 {
                count += 1;
            }
            pfx.push(count);
        }
        self.prefix.insert(node.index(), pfx);
    }

    /// Advances time for a tile's compute phase, modelling double buffering:
    /// DMA transfers issued since `tile_start` overlap with the PE array, so
    /// the tile costs `max(memory cycles, compute cycles)` in total.
    fn compute_overlapped(&mut self, macs: u64, tile_start: Cycle) {
        let compute = macs.div_ceil(self.cfg.pe_count());
        self.stage_compute += compute;
        let elapsed = self.cycle - tile_start;
        if compute > elapsed {
            self.cycle = tile_start + compute;
        }
    }

    fn run_stage(&mut self, stage: &Stage) {
        // Fixed metric path (`span.….stage.*`), per-stage display label on
        // the profile timeline — one Perfetto slice per conv1/conv2/… .
        let mut stage_span = cnnre_obs::span_labelled("stage", &stage.name);
        let start_cycle = self.cycle;
        let (reads0, writes0) = (self.reads, self.writes);
        self.stage_compute = 0;
        self.register_pruned_output(stage.output);
        let macs = match &stage.kind {
            StageKind::Conv {
                conv,
                pool,
                global_pool,
                ..
            } => self.run_conv_stage(stage, *conv, *pool, *global_pool),
            StageKind::Fc { linear, .. } => self.run_fc_stage(stage, *linear),
            StageKind::Eltwise => self.run_eltwise_stage(stage),
        };
        let nonzeros = self.acts.map(|acts| {
            acts[stage.output.index()]
                .as_slice()
                .iter()
                // lint:allow(float-eq): counts the same bit-exact zeros the
                // pruning hardware skips.
                .filter(|&&v| v != 0.0)
                .count() as u64
        });
        let total = self.cycle - start_cycle;
        stage_span.add_cycles(total);
        let report = StageReport {
            name: stage.name.clone(),
            output_node: stage.output,
            start_cycle,
            end_cycle: self.cycle,
            macs,
            read_transactions: self.reads - reads0,
            write_transactions: self.writes - writes0,
            compute_cycles: self.stage_compute.min(total),
            ofm_nonzeros: nonzeros,
        };
        log_debug!(
            "accel",
            "stage {}: {} cycles ({} compute, {} stalled), {} reads, {} writes",
            report.name,
            total,
            report.compute_cycles,
            total - report.compute_cycles,
            report.read_transactions,
            report.write_transactions
        );
        self.reports.push(report);
    }

    fn run_conv_stage(
        &mut self,
        stage: &Stage,
        conv_id: NodeId,
        pool_id: Option<NodeId>,
        global_pool: bool,
    ) -> u64 {
        let Op::Conv(conv) = &self.net.node(conv_id).op else {
            unreachable!("conv stage without conv node")
        };
        let in_node = stage.inputs[0];
        let in_shape = self.net.shape(in_node);
        let conv_shape = self.net.shape(conv_id);
        let out_shape = self.net.shape(stage.output);
        let win = conv.window();
        let pool_win = pool_id.map(|p| {
            let Op::Pool(pool) = &self.net.node(p).op else {
                unreachable!("pool id is a pool")
            };
            (pool.window(), pool.kind())
        });

        let weight_region = self
            .sched
            .weight_region(conv_id)
            // lint:allow(panic): the planner allocates a weights region for
            // every conv stage it emits
            .expect("conv stage has a weights region")
            .clone();
        let elem = self.cfg.element_bytes;
        let filter_elems = conv.d_ifm() * win.f * win.f;

        // Map final output rows -> conv rows -> IFM rows.
        let conv_rows = |r0: usize, r1: usize| -> (usize, usize) {
            if global_pool {
                (0, conv_shape.h)
            } else if let Some((pw, _)) = pool_win {
                let c0 = (r0 * pw.s).saturating_sub(pw.p);
                let c1 = ((r1 - 1) * pw.s + pw.f)
                    .saturating_sub(pw.p)
                    .min(conv_shape.h);
                (
                    c0.min(conv_shape.h),
                    c1.max(c0 + 1).min(conv_shape.h).max(c0),
                )
            } else {
                (r0, r1)
            }
        };
        let ifm_rows = |c0: usize, c1: usize| -> (usize, usize) {
            let i0 = (c0 * win.s).saturating_sub(win.p);
            let i1 = ((c1 - 1) * win.s + win.f)
                .saturating_sub(win.p)
                .min(in_shape.h);
            (i0.min(in_shape.h), i1.max(i0))
        };

        let final_h = out_shape.h;
        // Largest row tile whose IFM slice fits the on-chip buffer.
        let mut tile = final_h.max(1);
        while tile > 1 {
            let (c0, c1) = conv_rows(0, tile);
            let (i0, i1) = ifm_rows(c0, c1);
            if in_shape.c * (i1 - i0) * in_shape.w <= self.cfg.ifm_buffer_elems {
                break;
            }
            tile -= 1;
        }
        // Output-channel tile bounded by the weight buffer.
        let ch_tile = (self.cfg.weight_buffer_elems / filter_elems).clamp(1, conv.d_ofm());

        let mut total_macs = 0u64;
        let mut r0 = 0usize;
        while r0 < final_h {
            let r1 = (r0 + tile).min(final_h);
            let (c0, c1) = conv_rows(r0, r1);
            let (i0, i1) = ifm_rows(c0, c1);
            let mut d0 = 0usize;
            while d0 < conv.d_ofm() {
                let d1 = (d0 + ch_tile).min(conv.d_ofm());
                let tile_start = self.cycle;
                self.tile_refills += 1;
                // Weights first (filters d0..d1 are contiguous in DRAM).
                self.emit(
                    weight_region.base + (d0 * filter_elems) as u64 * elem,
                    ((d1 - d0) * filter_elems) as u64 * elem,
                    AccessKind::Read,
                );
                // IFM rows once per row tile, after the first weight burst.
                if d0 == 0 {
                    for c in 0..in_shape.c {
                        let base = (c * in_shape.h + i0) * in_shape.w;
                        let len = (i1 - i0) * in_shape.w;
                        self.read_fmap_range(in_node, base..base + len);
                    }
                }
                let macs = ((c1 - c0) * conv_shape.w) as u64
                    * (d1 - d0) as u64
                    * (win.f * win.f * conv.d_ifm()) as u64;
                total_macs += macs;
                // Final OFM rows for these channels.
                if global_pool {
                    self.write_fmap_range(stage.output, d0..d1);
                } else {
                    for d in d0..d1 {
                        let base = (d * final_h + r0) * out_shape.w;
                        let len = (r1 - r0) * out_shape.w;
                        self.write_fmap_range(stage.output, base..base + len);
                    }
                }
                // All of the tile's DMA (loads and the previous results'
                // store drain) overlaps with the PE array.
                self.compute_overlapped(macs, tile_start);
                d0 = d1;
            }
            r0 = r1;
        }
        let _ = pool_win.map(|(_, kind)| matches!(kind, PoolKind::Avg));
        total_macs
    }

    fn run_fc_stage(&mut self, stage: &Stage, linear_id: NodeId) -> u64 {
        let Op::Linear(linear) = &self.net.node(linear_id).op else {
            unreachable!("fc stage without linear node")
        };
        let in_node = stage.inputs[0];
        let in_len = linear.in_features();
        let out_len = linear.out_features();
        let weight_region = self
            .sched
            .weight_region(linear_id)
            // lint:allow(panic): the planner allocates a weights region for
            // every fc stage it emits
            .expect("fc stage has a weights region")
            .clone();
        let elem = self.cfg.element_bytes;
        let tile = (self.cfg.weight_buffer_elems / in_len).clamp(1, out_len);
        let mut total_macs = 0u64;
        let mut o0 = 0usize;
        while o0 < out_len {
            let o1 = (o0 + tile).min(out_len);
            let tile_start = self.cycle;
            self.tile_refills += 1;
            self.emit(
                weight_region.base + (o0 * in_len) as u64 * elem,
                ((o1 - o0) * in_len) as u64 * elem,
                AccessKind::Read,
            );
            self.read_fmap_range(in_node, 0..in_len);
            let macs = ((o1 - o0) * in_len) as u64;
            total_macs += macs;
            self.write_fmap_range(stage.output, o0..o1);
            self.compute_overlapped(macs, tile_start);
            o0 = o1;
        }
        total_macs
    }

    /// Flattens a feature-map node into the producer-leaf slices actually
    /// holding its bytes: `(producer node, flat offset within `node`, len)`.
    fn leaf_slices(&self, node: NodeId, out: &mut Vec<(NodeId, usize, usize)>, base: usize) {
        let n = self.net.node(node);
        match n.op {
            Op::Flatten => self.leaf_slices(n.inputs[0], out, base),
            Op::Concat => {
                let mut off = base;
                for &inp in &n.inputs {
                    self.leaf_slices(inp, out, off);
                    off += self.net.shape(inp).len();
                }
            }
            _ => out.push((node, base, self.net.shape(node).len())),
        }
    }

    fn run_eltwise_stage(&mut self, stage: &Stage) -> u64 {
        let len = self.net.shape(stage.output).len();
        // Read leaf slices freshest-first: the first block fetched was
        // written by the immediately preceding layer, which is the RAW
        // signal that lets the trace analyzer place the boundary exactly.
        let mut leaves: Vec<(NodeId, usize, usize)> = Vec::new();
        for &inp in &stage.inputs {
            self.leaf_slices(inp, &mut leaves, 0);
        }
        leaves.sort_by_key(|(n, _, _)| core::cmp::Reverse(n.index()));
        let chunk = self.cfg.ifm_buffer_elems.max(1);
        for (leaf, _, leaf_len) in leaves {
            let mut a0 = 0usize;
            while a0 < leaf_len {
                let a1 = (a0 + chunk).min(leaf_len);
                self.read_fmap_range(leaf, a0..a1);
                a0 = a1;
            }
        }
        self.cycle += (len as u64).div_ceil(self.cfg.pe_count());
        self.write_fmap_range(stage.output, 0..len);
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnnre_nn::models::{convnet, lenet, squeezenet};
    use cnnre_tensor::rng::SmallRng;
    use cnnre_tensor::rng::{Rng, SeedableRng};

    fn rand_input(net: &Network, rng: &mut SmallRng) -> Tensor3 {
        Tensor3::from_fn(net.input_shape(), |_, _, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn accelerator_output_matches_functional_forward() {
        let mut rng = SmallRng::seed_from_u64(0);
        for net in [
            lenet(2, 10, &mut rng),
            convnet(4, 10, &mut rng),
            squeezenet(16, 10, &mut rng),
        ] {
            let x = rand_input(&net, &mut rng);
            let want = net.forward(&x);
            let exec = Accelerator::new(AccelConfig::default())
                .run(&net, &x)
                .unwrap();
            assert_eq!(exec.output.as_ref(), Some(&want));
        }
    }

    #[test]
    fn trace_only_matches_full_run_trace_without_pruning() {
        let mut rng = SmallRng::seed_from_u64(1);
        let net = lenet(2, 10, &mut rng);
        let x = rand_input(&net, &mut rng);
        let accel = Accelerator::new(AccelConfig::default());
        let full = accel.run(&net, &x).unwrap();
        let shallow = accel.run_trace_only(&net).unwrap();
        assert_eq!(
            full.trace, shallow.trace,
            "dense trace is value-independent"
        );
        assert!(shallow.output.is_none());
    }

    #[test]
    fn streamed_run_hands_the_sink_the_stored_trace() {
        let mut rng = SmallRng::seed_from_u64(7);
        let net = lenet(2, 10, &mut rng);
        let x = rand_input(&net, &mut rng);
        let accel = Accelerator::new(AccelConfig::for_weight_attack());
        let schedule = Schedule::plan(&net, accel.config()).unwrap();
        let mut sink = accel.trace_builder();
        accel.run_streamed(&net, &schedule, &x, &mut sink);
        assert_eq!(sink.finish(), accel.run(&net, &x).unwrap().trace);
    }

    /// The engine moves data in bursts, and the stored trace keeps each
    /// burst as one run: LeNet's trace-only run coalesces at least 50
    /// transactions per run.
    #[test]
    fn trace_only_run_stores_bursts_as_runs() {
        let mut rng = SmallRng::seed_from_u64(0);
        let net = lenet(1, 10, &mut rng);
        let trace = (Accelerator::new(AccelConfig::default()).run_trace_only(&net))
            .unwrap()
            .trace;
        assert!(
            trace.run_count() * 50 <= trace.len(),
            "{} runs for {} events",
            trace.run_count(),
            trace.len()
        );
    }

    #[test]
    fn trace_only_rejects_pruning() {
        let mut rng = SmallRng::seed_from_u64(2);
        let net = lenet(4, 10, &mut rng);
        let accel = Accelerator::new(AccelConfig::default().with_zero_pruning(true));
        assert!(matches!(
            accel.run_trace_only(&net),
            Err(ScheduleError::InvalidConfig(_))
        ));
    }

    #[test]
    fn pruning_reduces_write_traffic() {
        // Compare at word granularity where the compression is not masked
        // by burst quantization on these tiny depth-scaled feature maps.
        let mut rng = SmallRng::seed_from_u64(3);
        let net = convnet(4, 10, &mut rng);
        let x = rand_input(&net, &mut rng);
        let word = AccelConfig::default().with_block_bytes(4);
        let dense = Accelerator::new(word).run(&net, &x).unwrap();
        let pruned = Accelerator::new(word.with_zero_pruning(true))
            .run(&net, &x)
            .unwrap();
        assert!(
            pruned.trace.write_count() < dense.trace.write_count(),
            "pruned {} vs dense {}",
            pruned.trace.write_count(),
            dense.trace.write_count()
        );
        assert!(
            pruned.trace.read_count() < dense.trace.read_count(),
            "reads also shrink"
        );
        // Functional output unchanged by pruning (it is a storage format).
        assert_eq!(pruned.output, dense.output);
    }

    #[test]
    fn pruned_write_count_tracks_nonzeros_at_word_granularity() {
        let mut rng = SmallRng::seed_from_u64(4);
        let net = lenet(2, 10, &mut rng);
        let x = rand_input(&net, &mut rng);
        let cfg = AccelConfig::for_weight_attack();
        let exec = Accelerator::new(cfg).run(&net, &x).unwrap();
        // For each stage, write transactions == non-zero outputs (4-byte
        // blocks, one value word per non-zero element).
        for report in &exec.stages {
            assert_eq!(
                report.write_transactions,
                report.ofm_nonzeros.unwrap(),
                "stage {}",
                report.name
            );
        }
    }

    #[test]
    fn stage_reports_cover_all_layers_in_order() {
        let mut rng = SmallRng::seed_from_u64(5);
        let net = lenet(2, 10, &mut rng);
        let exec = Accelerator::new(AccelConfig::default())
            .run_trace_only(&net)
            .unwrap();
        let names: Vec<&str> = exec.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["conv1", "conv2", "fc1", "fc2"]);
        for w in exec.stages.windows(2) {
            assert!(w[0].end_cycle <= w[1].start_cycle, "stages are sequential");
        }
        // Conv stages are compute-dominated: macs > 0 and cycles >= macs/PE.
        for s in &exec.stages {
            assert!(s.macs > 0);
            assert!(s.end_cycle - s.start_cycle >= s.macs / 256);
        }
    }

    #[test]
    fn conv_mac_count_matches_formula_when_untiled() {
        let mut rng = SmallRng::seed_from_u64(6);
        let net = lenet(1, 10, &mut rng);
        let exec = Accelerator::new(AccelConfig::default())
            .run_trace_only(&net)
            .unwrap();
        // conv1: 28^2 * 6 * 5^2 * 1; conv2: 10^2 * 16 * 5^2 * 6.
        assert_eq!(exec.stages[0].macs, 28 * 28 * 6 * 25);
        assert_eq!(exec.stages[1].macs, 10 * 10 * 16 * 25 * 6);
        assert_eq!(exec.stages[2].macs, 400 * 120);
    }
}
