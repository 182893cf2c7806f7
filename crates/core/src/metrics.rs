//! The paper's evaluation metrics, per static instruction and per loop.
//!
//! Columns of Tables 1–3 and how they are computed here:
//!
//! * **Average Concurrency** — mean parallel-partition size over *all*
//!   partitions of *all* FP candidate instructions in the analyzed DDG,
//!   singleton partitions included (§4.1).
//! * **Percent Vec. Ops (unit)** — instances belonging to non-singleton
//!   unit/zero-stride subpartitions, as a percentage of all candidate
//!   instances in the DDG.
//! * **Average Vec. Size (unit)** — mean size of those non-singleton
//!   unit-stride subpartitions.
//! * **Percent/Average (non-unit)** — same two metrics over the non-unit
//!   constant-stride subpartitions formed from leftover singletons (§3.3).
//!
//! **Percent Packed** (what the real compiler vectorized) is not computed
//! here — it comes from the model auto-vectorizer in `vectorscope-autovec`
//! and is attached to reports by the caller, mirroring how the paper takes
//! that column from HPCToolkit measurements of icc-compiled binaries.

use crate::partition::timestamp_rows;
use crate::reduction::reduction_chains;
use crate::stride::{analyze_sorted_tuples, SortedTuples};
use std::collections::HashSet;
use std::mem::size_of;
use vectorscope_ddg::Ddg;
use vectorscope_ir::{InstId, Module, Span};

/// Metrics for one static candidate instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct InstMetrics {
    /// The instruction.
    pub inst: InstId,
    /// Its source span.
    pub span: Span,
    /// Dynamic instances analyzed.
    pub instances: u64,
    /// Number of parallel partitions (distinct timestamps).
    pub partitions: u64,
    /// Mean partition size (this instruction's available parallelism).
    pub avg_partition_size: f64,
    /// Instances in non-singleton unit-stride subpartitions.
    pub unit_ops: u64,
    /// Number of non-singleton unit-stride subpartitions.
    pub unit_subparts: u64,
    /// Instances in non-singleton non-unit-stride subpartitions.
    pub non_unit_ops: u64,
    /// Number of non-singleton non-unit-stride subpartitions.
    pub non_unit_subparts: u64,
    /// Whether the instruction was classified (and broken) as a reduction.
    pub reduction: bool,
}

/// Aggregated metrics over all candidate instructions of one DDG — one row
/// of the paper's tables.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoopMetrics {
    /// Total dynamic FP candidate operations.
    pub total_ops: u64,
    /// Average Concurrency (mean partition size across all partitions of
    /// all candidates).
    pub avg_concurrency: f64,
    /// Percent Vec. Ops at unit/zero stride.
    pub pct_unit_vec_ops: f64,
    /// Average Vec. Size at unit/zero stride.
    pub avg_unit_vec_size: f64,
    /// Percent Vec. Ops at non-unit constant stride.
    pub pct_non_unit_vec_ops: f64,
    /// Average Vec. Size at non-unit constant stride.
    pub avg_non_unit_vec_size: f64,
    /// Distribution of unit-stride vectorizable group sizes.
    pub vec_lengths: VecLengthHistogram,
}

/// Histogram of unit-stride subpartition sizes in power-of-two buckets.
///
/// The paper's introduction names this use case explicitly: "the
/// quantitative information on average vector lengths can be useful in
/// assessing the potential benefit of converting the code to use GPUs
/// (where much higher degree of SIMD parallelism is needed than with
/// short-vector SIMD ISAs)". Short-vector ISAs are happy with groups of
/// 2–8; a GPU warp wants ≥ 32.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VecLengthHistogram {
    /// `buckets[k]` counts the *operations* in unit-stride subpartitions of
    /// size in `[2^(k+1), 2^(k+2))`, i.e. bucket 0 = sizes 2–3, bucket 1 =
    /// 4–7, ..., bucket 9 = 2048–4095; larger sizes saturate into the last
    /// bucket.
    pub buckets: [u64; 10],
}

impl VecLengthHistogram {
    fn record(&mut self, size: usize) {
        debug_assert!(size >= 2);
        let k = (usize::BITS - 1 - size.leading_zeros()) as usize; // floor(log2)
        let bucket = (k - 1).min(self.buckets.len() - 1);
        self.buckets[bucket] += size as u64;
    }

    /// Total operations recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Share of vectorizable operations in groups of at least `min_size`
    /// (e.g. 32 for a GPU warp), in [0, 1]. Bucket granularity: the share
    /// is computed over whole buckets, using each bucket's lower bound.
    pub fn share_at_least(&self, min_size: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        // Bucket k holds sizes [2^(k+1), 2^(k+2)); it counts toward
        // `min_size` only if its lower bound 2^(k+1) >= min_size, i.e.
        // k + 1 >= ceil(log2(min_size)). Flooring here would let a bucket
        // whose smallest members are below `min_size` slip in (e.g.
        // min_size = 3 counting size-2 groups).
        let from = if min_size <= 2 {
            0
        } else {
            let ceil_log2 = (usize::BITS - (min_size - 1).leading_zeros()) as usize;
            (ceil_log2 - 1).min(self.buckets.len() - 1)
        };
        let big: u64 = self.buckets[from..].iter().sum();
        big as f64 / total as f64
    }

    /// A coarse verdict for GPU offload potential: the share of
    /// vectorizable ops in warp-sized (≥ 32) groups.
    pub fn gpu_share(&self) -> f64 {
        self.share_at_least(32)
    }
}

/// Options controlling the DDG analysis.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricOptions {
    /// Detect reduction chains and break their self-dependences before
    /// partitioning (the paper's proposed extension; off by default to
    /// match the published tables).
    pub break_reductions: bool,
    /// Ignored: the stride stage runs on the calling thread. The field
    /// stays only so existing callers compile, and nothing reads it.
    pub threads: usize,
}

/// One candidate instruction's partitions as operand address tuples — the
/// engine-neutral handoff into [`analyze_lanes`].
///
/// Both the batch engine ([`analyze_ddg`]) and the streaming engine
/// (`crate::stream`) reduce their work to a `Vec<LaneTuples>` in candidate
/// first-appearance order, through [`LaneTuples::push`], so the tuple
/// coding, the stride stages and the aggregation arithmetic (and therefore
/// every float in the report) live in exactly one place.
///
/// Tuples are stored delta-coded: each address as the zig-zag varint of
/// its difference from the same operand of the group's previous tuple.
/// Strided address streams, the common case, then cost a byte or two per
/// address instead of eight.
pub(crate) struct LaneTuples {
    inst: InstId,
    /// Element size of the instruction's operands, the unit stride.
    elem: u64,
    /// Addresses per tuple: the instruction's operand count, or 1 for an
    /// instruction without operands (each instance then keeps one zero
    /// address, so it is still counted); 0 before the first tuple.
    arity: usize,
    reduction: bool,
    /// `groups[t - 1]` holds the tuples of the partition with timestamp
    /// `t`.
    groups: Vec<TupleGroup>,
    /// The last tuple pushed into each group, `arity` addresses per group:
    /// what that group's next tuple is coded against.
    last: Vec<u64>,
}

/// The tuples of one partition.
#[derive(Default)]
struct TupleGroup {
    /// The tuples in execution order, `arity` zig-zag varints each: every
    /// address minus the same operand's address in the previous tuple (the
    /// first tuple against zeros).
    bytes: Vec<u8>,
    instances: u32,
}

impl LaneTuples {
    pub fn new(inst: InstId, elem: u64, reduction: bool) -> Self {
        LaneTuples {
            inst,
            elem,
            arity: 0,
            reduction,
            groups: Vec::new(),
            last: Vec::new(),
        }
    }

    /// Appends one instance's operand address tuple to the partition with
    /// timestamp `t` (creating the partitions up to `t`), returning the
    /// bytes by which the lane's allocations grew.
    ///
    /// # Panics
    ///
    /// Panics if the tuple's length differs from the lane's earlier tuples:
    /// a static instruction's operand count is fixed.
    pub fn push(&mut self, t: usize, addrs: impl ExactSizeIterator<Item = u64>) -> usize {
        let arity = addrs.len().max(1);
        if self.arity == 0 {
            self.arity = arity;
        }
        assert_eq!(
            self.arity, arity,
            "instances of one static instruction must share an operand count"
        );
        let outer = |lane: &Self| {
            lane.groups.capacity() * size_of::<TupleGroup>() + lane.last.capacity() * 8
        };
        let before = outer(self);
        if self.groups.len() < t {
            self.groups.resize_with(t, TupleGroup::default);
            self.last.resize(t * arity, 0);
        }
        let group = &mut self.groups[t - 1];
        let held = group.bytes.capacity();
        let mut last = self.last[(t - 1) * arity..t * arity].iter_mut();
        for (a, prev) in addrs.zip(last.by_ref()) {
            write_varint(&mut group.bytes, zigzag(a.wrapping_sub(*prev)));
            *prev = a;
        }
        if last.len() == arity {
            group.bytes.push(0); // no operands: one zero address
        }
        group.instances += 1;
        group.bytes.capacity() - held + outer(self) - before
    }

    fn instances(&self, g: usize) -> usize {
        self.groups[g].instances as usize
    }

    /// The tuples of partition `g`, concatenated in execution order,
    /// `arity` addresses each.
    fn decode(&self, g: usize) -> Vec<u64> {
        let len = self.instances(g) * self.arity;
        let mut out: Vec<u64> = Vec::with_capacity(len);
        let mut bytes = self.groups[g].bytes.iter();
        for i in 0..len {
            let prev = if i < self.arity {
                0
            } else {
                out[i - self.arity]
            };
            out.push(prev.wrapping_add(unzigzag(read_varint(&mut bytes))));
        }
        out
    }
}

/// Zig-zag: a wrapped difference as a varint-friendly `u64`, small
/// whichever way it points.
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Appends `v` in LEB128: seven bits a byte, low bits first.
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn read_varint(bytes: &mut std::slice::Iter<'_, u8>) -> u64 {
    let mut v = 0;
    for shift in (0..64).step_by(7) {
        let byte = *bytes.next().expect("a varint written by write_varint");
        v |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            break;
        }
    }
    v
}

/// Runs the §3.2/§3.3 stride stages on every partition of every lane and
/// aggregates the paper's table metrics — the back end both engines share.
///
/// Each partition is decoded, sorted and scanned in turn, and its
/// [`StrideReport`](crate::stride::StrideReport) is folded into its lane's
/// totals at once, so only one partition's scratch is alive at a time.
/// The payloads are within-partition indices: unique and in execution
/// order, which is all the subpartition structure depends on.
///
/// This is the single source of truth for the report arithmetic: per-lane
/// totals accumulate in lane order, `per_inst` is stably sorted by instance
/// count (descending), and every ratio is computed from `u64` totals — so
/// the report is byte-identical for both engines.
pub(crate) fn analyze_lanes(
    module: &Module,
    lanes: &[LaneTuples],
) -> (LoopMetrics, Vec<InstMetrics>) {
    let mut per_inst = Vec::new();
    let mut vec_lengths = VecLengthHistogram::default();
    let mut total_ops = 0u64;
    let mut total_partitions = 0u64;
    let mut unit_ops = 0u64;
    let mut unit_subparts = 0u64;
    let mut non_unit_ops = 0u64;
    let mut non_unit_subparts = 0u64;

    for lane in lanes {
        let partitions = lane.groups.len();
        let instances: usize = (0..partitions).map(|g| lane.instances(g)).sum();
        let mut m = InstMetrics {
            inst: lane.inst,
            span: module.span_of(lane.inst),
            instances: instances as u64,
            partitions: partitions as u64,
            avg_partition_size: if partitions == 0 {
                0.0
            } else {
                instances as f64 / partitions as f64
            },
            unit_ops: 0,
            unit_subparts: 0,
            non_unit_ops: 0,
            non_unit_subparts: 0,
            reduction: lane.reduction,
        };
        for g in 0..partitions {
            let payloads = (0..lane.instances(g) as u32).collect();
            let tuples = SortedTuples::from_flat(&lane.decode(g), payloads, lane.arity);
            let report = analyze_sorted_tuples(&tuples, lane.elem);
            m.unit_ops += report.unit_ops() as u64;
            m.unit_subparts += report.unit.len() as u64;
            m.non_unit_ops += report.non_unit_ops() as u64;
            m.non_unit_subparts += report.non_unit.len() as u64;
            for sub in &report.unit {
                vec_lengths.record(sub.len());
            }
        }

        total_ops += m.instances;
        total_partitions += m.partitions;
        unit_ops += m.unit_ops;
        unit_subparts += m.unit_subparts;
        non_unit_ops += m.non_unit_ops;
        non_unit_subparts += m.non_unit_subparts;
        per_inst.push(m);
    }
    per_inst.sort_by_key(|m| std::cmp::Reverse(m.instances));

    let pct = |x: u64| {
        if total_ops == 0 {
            0.0
        } else {
            x as f64 * 100.0 / total_ops as f64
        }
    };
    let avg = |ops: u64, parts: u64| {
        if parts == 0 {
            0.0
        } else {
            ops as f64 / parts as f64
        }
    };
    let metrics = LoopMetrics {
        total_ops,
        avg_concurrency: if total_partitions == 0 {
            0.0
        } else {
            total_ops as f64 / total_partitions as f64
        },
        pct_unit_vec_ops: pct(unit_ops),
        avg_unit_vec_size: avg(unit_ops, unit_subparts),
        pct_non_unit_vec_ops: pct(non_unit_ops),
        avg_non_unit_vec_size: avg(non_unit_ops, non_unit_subparts),
        vec_lengths,
    };
    (metrics, per_inst)
}

/// Runs the full per-instruction analysis over one DDG and aggregates the
/// paper's table metrics.
///
/// Returns the aggregate row plus the per-instruction breakdown (sorted by
/// instance count, descending). The graph is read in one forward walk:
/// Algorithm 1 for every candidate at once, which hands each instance's
/// timestamp and operand writers over as it is stamped, so its operand
/// address tuple goes straight into its partition's arena. The instances
/// of one static instruction must share an operand count, as they do in
/// every trace-built graph.
pub fn analyze_ddg(
    module: &Module,
    ddg: &Ddg,
    options: &MetricOptions,
) -> (LoopMetrics, Vec<InstMetrics>) {
    let reductions = if options.break_reductions {
        reduction_chains(module, ddg)
    } else {
        Vec::new()
    };
    let empty: HashSet<u32> = HashSet::new();

    let insts = ddg.candidate_insts();
    let chains: Vec<Option<&crate::reduction::ReductionChain>> = insts
        .iter()
        .map(|&inst| reductions.iter().find(|c| c.inst == inst))
        .collect();
    let ignores: Vec<&HashSet<u32>> = chains
        .iter()
        .map(|chain| chain.map(|c| &c.chain_nodes).unwrap_or(&empty))
        .collect();

    // `insts` are distinct, so lane `j` is `insts[j]` and each candidate
    // node is one instance.
    let mut lanes: Vec<LaneTuples> = insts
        .iter()
        .zip(&chains)
        .map(|(&inst, chain)| LaneTuples::new(inst, ddg.elem_size(inst), chain.is_some()))
        .collect();
    timestamp_rows(ddg, &insts, &ignores, |j, _, t, writers| {
        lanes[j].push(t as usize, writers.iter().map(|&w| ddg.load_addr(w)));
    });
    analyze_lanes(module, &lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorscope_interp::{CaptureSpec, Vm};

    fn metrics_of(src: &str, options: &MetricOptions) -> (LoopMetrics, Vec<InstMetrics>) {
        let module = vectorscope_frontend::compile("t.kern", src).unwrap();
        let mut vm = Vm::new(&module);
        vm.set_capture(CaptureSpec::Program, "all");
        vm.run_main().unwrap();
        let trace = vm.take_trace().unwrap();
        let ddg = Ddg::build(&module, &trace);
        analyze_ddg(&module, &ddg, options)
    }

    #[test]
    fn fully_vectorizable_loop() {
        let (m, per) = metrics_of(
            r#"
            const int N = 32;
            double a[N]; double b[N]; double c[N];
            void main() {
                for (int i = 0; i < N; i++) { b[i] = 1.0; c[i] = 2.0; }
                for (int i = 0; i < N; i++) { a[i] = b[i] * c[i]; }
            }
        "#,
            &MetricOptions::default(),
        );
        assert_eq!(m.total_ops, 32);
        assert_eq!(m.avg_concurrency, 32.0);
        assert!((m.pct_unit_vec_ops - 100.0).abs() < 1e-9);
        assert_eq!(m.avg_unit_vec_size, 32.0);
        assert_eq!(m.pct_non_unit_vec_ops, 0.0);
        assert_eq!(per.len(), 1);
        assert!(!per[0].reduction);
        // All 32 ops sit in one size-32 group: bucket 4 (32..63), and the
        // loop is warp-suitable.
        assert_eq!(m.vec_lengths.total(), 32);
        assert_eq!(m.vec_lengths.buckets[4], 32);
        assert_eq!(m.vec_lengths.gpu_share(), 1.0);
    }

    #[test]
    fn histogram_buckets_and_shares() {
        let mut h = VecLengthHistogram::default();
        h.record(2); // bucket 0
        h.record(3); // bucket 0
        h.record(8); // bucket 2
        h.record(100); // bucket 5 (64..127)
        assert_eq!(h.buckets[0], 5);
        assert_eq!(h.buckets[2], 8);
        assert_eq!(h.buckets[5], 100);
        assert_eq!(h.total(), 113);
        assert!((h.gpu_share() - 100.0 / 113.0).abs() < 1e-12);
        assert_eq!(h.share_at_least(2), 1.0);
        // Saturation: enormous groups land in the last bucket.
        h.record(1 << 20);
        assert_eq!(h.buckets[9], 1 << 20);
    }

    #[test]
    fn share_at_least_uses_bucket_lower_bounds() {
        let mut h = VecLengthHistogram::default();
        h.record(2); // bucket 0 (sizes 2..3)
        h.record(4); // bucket 1 (sizes 4..7)
        h.record(32); // bucket 4 (sizes 32..63)
        let total = (2 + 4 + 32) as f64;
        // min_size = 2: every bucket qualifies.
        assert_eq!(h.share_at_least(2), 1.0);
        // min_size = 3: bucket 0's lower bound is 2, so its size-2 groups
        // must NOT be counted as >= 3.
        assert!((h.share_at_least(3) - 36.0 / total).abs() < 1e-12);
        // min_size = 4: same cut as 3 (bucket 1 starts at exactly 4).
        assert!((h.share_at_least(4) - 36.0 / total).abs() < 1e-12);
        // min_size = 32: only the warp-sized bucket.
        assert!((h.share_at_least(32) - 32.0 / total).abs() < 1e-12);
        // min_size = 5: bucket 1 (4..7) contains sizes below 5; exclude it.
        assert!((h.share_at_least(5) - 32.0 / total).abs() < 1e-12);
        // Beyond the last bucket's lower bound: clamps to the last bucket.
        assert_eq!(h.share_at_least(1 << 30), 0.0);
    }

    #[test]
    fn serial_chain_has_no_vector_ops() {
        let (m, _) = metrics_of(
            r#"
            const int N = 32;
            double a[N];
            void main() {
                a[0] = 1.0;
                for (int i = 1; i < N; i++) { a[i] = 2.0 * a[i-1]; }
            }
        "#,
            &MetricOptions::default(),
        );
        assert_eq!(m.avg_concurrency, 1.0);
        assert_eq!(m.pct_unit_vec_ops, 0.0);
        assert_eq!(m.pct_non_unit_vec_ops, 0.0);
    }

    #[test]
    fn aos_traversal_shows_non_unit_potential() {
        // Array of structs: independent ops at stride 16 — the milc
        // pattern. Unit-stride zero, non-unit high.
        let (m, _) = metrics_of(
            r#"
            struct complex { double r; double i; };
            const int N = 16;
            complex z[N]; double out[N];
            void main() {
                for (int k = 0; k < N; k++) { z[k].r = 1.0; z[k].i = 2.0; }
                for (int k = 0; k < N; k++) { out[k] = z[k].r * 3.0; }
            }
        "#,
            &MetricOptions::default(),
        );
        assert!(m.pct_non_unit_vec_ops > 30.0, "{m:?}");
    }

    #[test]
    fn reduction_breaking_changes_the_verdict() {
        let src = r#"
            const int N = 16;
            double a[N]; double s = 0.0;
            void main() {
                for (int i = 0; i < N; i++) { a[i] = 1.0; }
                double acc = 0.0;
                for (int i = 0; i < N; i++) { acc += a[i]; }
                s = acc;
            }
        "#;
        let (base, per_base) = metrics_of(src, &MetricOptions::default());
        // The accumulation serializes: concurrency 1 for that instruction.
        let acc_inst = per_base.iter().find(|m| m.partitions > 1).unwrap();
        assert_eq!(acc_inst.avg_partition_size, 1.0);

        let (broken, per_broken) = metrics_of(
            src,
            &MetricOptions {
                break_reductions: true,
                ..MetricOptions::default()
            },
        );
        let acc_broken = per_broken.iter().find(|m| m.reduction).unwrap();
        assert_eq!(acc_broken.partitions, 1);
        assert!(broken.pct_unit_vec_ops > base.pct_unit_vec_ops);
    }

    #[test]
    fn empty_program_yields_zeroes() {
        let (m, per) = metrics_of("void main() { }", &MetricOptions::default());
        assert_eq!(m.total_ops, 0);
        assert_eq!(m.avg_concurrency, 0.0);
        assert!(per.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn address() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>(), 0u64..4096]
    }

    proptest! {
        /// Delta-coded lane tuples decode to exactly what was pushed, per
        /// partition and in order, with matching instance counts; an
        /// operand-less instance keeps one zero address; and `push` reports
        /// every byte the lane allocated.
        #[test]
        fn lane_tuples_round_trip(
            arity in 0usize..3,
            pushes in prop::collection::vec((1usize..6, address(), address()), 0..80),
            fall in 0u64..4096,
        ) {
            // Falling runs as well: each operand steps down by `fall`.
            let falling = (0..8u64).map(|k| (2, (1 << 40) - k * fall, fall.wrapping_sub(k * 16)));
            let pushes: Vec<(usize, u64, u64)> = pushes.into_iter().chain(falling).collect();
            let mut lane = LaneTuples::new(InstId(3), 8, false);
            let mut want: Vec<Vec<u64>> = Vec::new();
            let mut counts: Vec<usize> = Vec::new();
            let mut grown = 0;
            for &(t, a, b) in &pushes {
                let tuple = &[a, b][..arity];
                grown += lane.push(t, tuple.iter().copied());
                if want.len() < t {
                    want.resize(t, Vec::new());
                    counts.resize(t, 0);
                }
                want[t - 1].extend_from_slice(if arity == 0 { &[0] } else { tuple });
                counts[t - 1] += 1;
            }
            prop_assert_eq!(lane.arity, arity.max(1));
            prop_assert_eq!(lane.groups.len(), want.len());
            for (g, tuples) in want.iter().enumerate() {
                prop_assert_eq!(&lane.decode(g), tuples);
                prop_assert_eq!(lane.instances(g), counts[g]);
            }
            let held = lane.groups.capacity() * size_of::<TupleGroup>()
                + lane.last.capacity() * 8
                + lane.groups.iter().map(|g| g.bytes.capacity()).sum::<usize>();
            prop_assert_eq!(grown, held);
        }
    }
}
