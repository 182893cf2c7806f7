//! Streaming bounded-memory analysis engine.
//!
//! The batch pipeline materializes the full trace (`Vec<TraceEvent>`) and
//! the full DDG (one node per dynamic instruction) before Algorithm 1 ever
//! runs, so peak memory is O(trace length) — the scalability wall the paper
//! itself acknowledges. But nothing downstream actually needs the graph:
//!
//! * **Algorithm 1 timestamps** are only ever read through *last-writer*
//!   lookups. A node's per-candidate timestamp vector matters exactly as
//!   long as the node is still the most recent writer of some register or
//!   memory cell; once overwritten, no future node can reach it (flow
//!   dependences only point at last writers), so its timestamps are dead.
//!   Keeping the timestamp lanes as the writer *payload* of the dependence
//!   resolver therefore preserves every reachable timestamp while bounding
//!   memory by the number of **live** locations, not executed instructions.
//! * **The §3.2/§3.3 stride scans** consume only each instance's operand
//!   *address tuple* and its partition. Subpartition structure is a
//!   function of the sorted tuple sequence alone: both engines sort with
//!   unique, execution-ordered tie-breakers (batch: node ids; streaming:
//!   within-partition indices), so a per-(candidate, timestamp) accumulator
//!   of raw tuples reproduces the batch group sizes exactly — node ids
//!   never leave the engine, so they are not needed.
//!
//! [`StreamingAnalyzer::consume`] is the push-style endpoint the VM's
//! [`vectorscope_interp::Vm::add_sink`] API feeds one event at a time. It
//! runs the same [`vectorscope_ddg::resolve::Resolver`] the DDG builder
//! runs — register frames, call/ret linkage and the
//! most-recent-*overlapping*-store probe exist once — with timestamp lanes
//! as the writer payload instead of nothing. A writer's lanes are a shared
//! row: an instance that only forwards one operand's row holds that same
//! row, and only candidate instances and true merges make a new one.
//! [`StreamingAnalyzer::finish`] then runs the shared stride core and the
//! shared metrics assembler, producing reports **byte-identical** to
//! [`crate::metrics::analyze_ddg`] over the batch DDG of the same event stream.
//!
//! Peak resident state is `O(live frames + live cells + candidate
//! instances)`: a returned activation's register frame is recycled, the
//! memory shadow holds the touched pages plus one payload per written base,
//! and the accumulators hold one tuple per candidate instance. On the
//! bundled kernel with the longest trace that is 4.9× below the batch DDG
//! footprint; `tests/streaming.rs` holds it to at most a quarter.
//! [`StreamStats`] exposes the observability counters (`vscope stats`).

use crate::metrics::{assemble, InstMetrics, LaneOutcome, LoopMetrics, MetricOptions};
use crate::partition::dominance;
use crate::stride::{analyze_sorted_tuples, SortedTuples, StrideReport};
use std::mem::size_of;
use std::sync::Arc;
use vectorscope_ddg::resolve::{Access, Handler, NodeEvent, Payload, Resolver, Writer};
use vectorscope_ddg::{BuildError, CandidatePolicy};
use vectorscope_ir::{InstId, Module};
use vectorscope_trace::TraceEvent;

/// Observability counters of one streaming run.
///
/// The `peak_*` fields are the engine's memory story: the largest resident
/// shadow-table and accumulator footprint observed at any point of the
/// stream. They are reported through `vscope stats` and the `streaming`
/// bench — never inside analysis reports, whose bytes must stay identical
/// to the batch engine's.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Trace events consumed (plain + call + ret).
    pub events: u64,
    /// Dynamic instruction instances seen (batch-DDG node count).
    pub nodes: u64,
    /// Candidate (FP/int arithmetic) instances accumulated.
    pub candidate_instances: u64,
    /// Peak register slots held by the frames of activations that had not
    /// returned.
    pub peak_reg_shadow: usize,
    /// Distinct memory base addresses written (the memory shadow's live
    /// cells; they never die, so the peak is the final count).
    pub peak_mem_shadow: usize,
    /// Peak resident resolver bytes at allocated size: register frames
    /// (recycled ones included), shadow pages, payloads and lane heap.
    pub peak_shadow_bytes: usize,
    /// Peak resident stride-accumulator bytes (operand address tuples).
    pub peak_accumulator_bytes: usize,
    /// Partitions opened across all candidate lanes (each closes at
    /// `finish`).
    pub partitions: u64,
}

impl StreamStats {
    /// Total peak resident analysis state: shadow tables + accumulators.
    ///
    /// This is the number the streaming engine bounds, and what the
    /// `streaming` bench compares against the batch DDG footprint.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_shadow_bytes + self.peak_accumulator_bytes
    }
}

/// The result of [`StreamingAnalyzer::finish`].
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Aggregated table metrics — byte-identical to the batch engine's.
    pub metrics: LoopMetrics,
    /// Per-instruction breakdown — byte-identical to the batch engine's.
    pub per_inst: Vec<InstMetrics>,
    /// Dynamic instruction instances (what `ddg_nodes` reports).
    pub nodes: usize,
    /// Observability counters.
    pub stats: StreamStats,
}

/// What the streaming engine records per writer, reduced to what later
/// instances can still ask of it.
#[derive(Clone, Default)]
struct Lanes {
    /// The writer's timestamp row (`None`: every lane is 0): Algorithm 1
    /// timestamps per candidate lane, with trailing zeros trimmed. Lanes
    /// past its length are implicitly 0 (a timestamp is 0 until the lane's
    /// first candidate instance, so a writer that ran before that instance
    /// has lane value 0 by construction — the same argument that lets lanes
    /// be created lazily at all).
    ///
    /// A row is shared by every writer that only forwards it: a new row
    /// exists only for a candidate instance (its lane is bumped) or for an
    /// instance whose operand rows truly merge (their maximum equals none
    /// of them).
    row: Option<Arc<[u32]>>,
    /// The writer's dynamic address if it was a load, else 0 — exactly the
    /// contribution `Ddg::operand_addrs` derives from the writer node.
    load_addr: u64,
}

impl Payload for Lanes {
    fn heap_bytes(&self) -> usize {
        match &self.row {
            // The shared allocation: two reference counts and the lanes.
            Some(row) if Arc::strong_count(row) == 1 => 2 * size_of::<usize>() + 4 * row.len(),
            _ => 0,
        }
    }
}

/// No lane assigned yet.
const NO_LANE: u32 = u32::MAX;

/// The streaming engine's payload handler: Algorithm 1 timestamp lanes and
/// the per-(candidate, timestamp) operand-tuple accumulators.
#[derive(Default)]
struct Partitioner {
    // --- candidate lanes, created at first appearance (before a lane's
    // first instance every timestamp of that lane is 0, so late creation
    // loses nothing and reproduces `Ddg::candidate_insts` order).
    /// Lane of each candidate instruction, indexed by `InstId`.
    lane_of: Vec<u32>,
    lane_insts: Vec<InstId>,
    lane_elem: Vec<u64>,
    /// Operand count of each lane's static instruction (fixed per lane —
    /// candidates are binary arithmetic), making the accumulators flat.
    lane_arity: Vec<usize>,
    /// `accum[lane][timestamp - 1]` collects the operand address tuples of
    /// that partition's instances, concatenated in execution order with
    /// stride `lane_arity[lane]` — 8 bytes per operand, no per-instance
    /// allocation or header.
    accum: Vec<Vec<Vec<u64>>>,
    accum_bytes: usize,

    // --- the pending instance: the max over its operand writers' rows.
    /// The operand row that max equals, while it equals one.
    forward: Option<Arc<[u32]>>,
    /// Whether the pending row is `lanes` instead (a true merge, or a
    /// candidate's bumped row).
    materialized: bool,
    lanes: Vec<u32>,
    /// The pending instance's operand address tuple.
    tuple: Vec<u64>,
}

impl Partitioner {
    /// Joins one operand writer's row into the pending instance's row.
    fn join(&mut self, row: &Arc<[u32]>) {
        let current: &[u32] = match &self.forward {
            _ if self.materialized => &self.lanes,
            None => {
                self.forward = Some(Arc::clone(row));
                return;
            }
            Some(f) if Arc::ptr_eq(f, row) => return,
            Some(f) => f,
        };
        match dominance(current, row) {
            (true, _) => {}
            (false, true) => {
                self.forward = Some(Arc::clone(row));
                self.materialized = false;
            }
            (false, false) => {
                if !self.materialized {
                    let f = self.forward.take().expect("a forwarded row");
                    self.lanes.clear();
                    self.lanes.extend_from_slice(&f);
                    self.materialized = true;
                }
                if row.len() > self.lanes.len() {
                    self.lanes.resize(row.len(), 0);
                }
                for (d, &s) in self.lanes.iter_mut().zip(row.iter()) {
                    *d = (*d).max(s);
                }
            }
        }
    }

    /// Algorithm 1 for one candidate instance: its timestamp is the max
    /// predecessor timestamp in its lane plus one, and its operand tuple
    /// joins that partition's accumulator.
    fn candidate(&mut self, inst: InstId, elem: u64) {
        if !self.materialized {
            self.lanes.clear();
            if let Some(f) = self.forward.take() {
                self.lanes.extend_from_slice(&f);
            }
            self.materialized = true;
        }
        let i = inst.index();
        if i >= self.lane_of.len() {
            self.lane_of.resize(i + 1, NO_LANE);
        }
        if self.lane_of[i] == NO_LANE {
            self.lane_of[i] = self.lane_insts.len() as u32;
            self.lane_insts.push(inst);
            self.lane_elem.push(elem);
            self.lane_arity.push(self.tuple.len());
            self.accum.push(Vec::new());
        }
        let lane = self.lane_of[i] as usize;
        debug_assert_eq!(
            self.lane_arity[lane],
            self.tuple.len(),
            "a static instruction's operand count is fixed"
        );
        let t = self.lanes.get(lane).copied().unwrap_or(0) as usize + 1;
        if self.lanes.len() <= lane {
            self.lanes.resize(lane + 1, 0);
        }
        self.lanes[lane] = t as u32;
        let groups = &mut self.accum[lane];
        if groups.len() < t {
            self.accum_bytes += (t - groups.len()) * size_of::<Vec<u64>>();
            groups.resize_with(t, Vec::new);
        }
        self.accum_bytes += 8 * self.tuple.len();
        groups[t - 1].extend_from_slice(&self.tuple);
    }
}

impl Handler<Lanes> for Partitioner {
    fn operand(&mut self, writer: Option<&Writer<Lanes>>) {
        let Some(w) = writer else {
            self.tuple.push(0);
            return;
        };
        self.tuple.push(w.payload.load_addr);
        if let Some(row) = &w.payload.row {
            self.join(row);
        }
    }

    fn node(&mut self, node: NodeEvent<'_>) -> Lanes {
        if let Some(elem) = node.op.candidate_elem {
            self.candidate(node.inst.id, elem);
        }
        let row = if self.materialized {
            debug_assert_ne!(self.lanes.last(), Some(&0), "rows are trimmed");
            Some(Arc::from(&self.lanes[..]))
        } else {
            self.forward.take()
        };
        self.materialized = false;
        self.tuple.clear();
        let load_addr = match node.op.access {
            Access::Load(_) => node.addr,
            _ => 0,
        };
        Lanes { row, load_addr }
    }
}

/// Online Algorithm 1 + stride analysis over a pushed event stream.
///
/// Create one per capture region, feed every [`TraceEvent`] to
/// [`consume`](Self::consume) (typically through
/// [`vectorscope_interp::Vm::add_sink`]), then call
/// [`finish`](Self::finish) for the report. See the module docs for the
/// equivalence argument; `tests/streaming.rs` holds the differential
/// proof against the batch engine.
pub struct StreamingAnalyzer<'m> {
    module: &'m Module,
    resolver: Resolver<'m, Lanes>,
    partitioner: Partitioner,
    /// The first resolution error; later events are ignored.
    error: Option<BuildError>,
    stats: StreamStats,
}

impl<'m> StreamingAnalyzer<'m> {
    /// A fresh analyzer for one capture region of `module`.
    pub fn new(module: &'m Module, policy: CandidatePolicy) -> Self {
        StreamingAnalyzer {
            module,
            resolver: Resolver::new(module, policy),
            partitioner: Partitioner::default(),
            error: None,
            stats: StreamStats::default(),
        }
    }

    /// Consumes one trace event, updating live state online.
    pub fn consume(&mut self, event: &TraceEvent) {
        self.stats.events += 1;
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.resolver.step(event, &mut self.partitioner) {
            self.error = Some(e);
            return;
        }
        let stats = &mut self.stats;
        stats.peak_reg_shadow = stats.peak_reg_shadow.max(self.resolver.live_reg_slots());
        stats.peak_mem_shadow = stats.peak_mem_shadow.max(self.resolver.mem_cells());
        stats.peak_shadow_bytes = stats.peak_shadow_bytes.max(self.resolver.resident_bytes());
        stats.peak_accumulator_bytes = stats
            .peak_accumulator_bytes
            .max(self.partitioner.accum_bytes);
    }

    /// Closes the stream: runs the shared stride core over the accumulated
    /// partitions and assembles the report.
    ///
    /// `options.threads` fans the per-(candidate, partition) stride shards
    /// exactly like the batch engine; `options.break_reductions` is
    /// ignored (reduction chains are a whole-graph property).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::TraceTooLarge`] if the stream held more
    /// instances than `u32` node ids can express — the same limit, surfaced
    /// the same way, as the batch builder.
    pub fn finish(self, options: &MetricOptions) -> Result<StreamOutcome, BuildError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let p = &self.partitioner;
        let shards: Vec<(usize, usize)> = p
            .accum
            .iter()
            .enumerate()
            .flat_map(|(l, gs)| (0..gs.len()).map(move |g| (l, g)))
            .collect();
        // Same fan-out discipline as `analyze_ddg`: results return in shard
        // order, so aggregation is byte-identical at every thread count.
        let reports: Vec<StrideReport> =
            rayon_lite::par_map(options.threads, &shards, |_, &(l, g)| {
                // The accumulator is already the flat key arena the stride
                // core wants; payload = within-partition index, unique and
                // in execution order, so the arena sort orders by tuple
                // exactly like the batch engine's (tuple, node id) sort.
                let arity = p.lane_arity[l];
                let instances = (p.accum[l][g].len() / arity.max(1)) as u32;
                let tuples =
                    SortedTuples::from_flat(&p.accum[l][g], (0..instances).collect(), arity);
                analyze_sorted_tuples(&tuples, p.lane_elem[l])
            });
        let mut reports = reports.into_iter();
        let lanes: Vec<LaneOutcome> = p
            .lane_insts
            .iter()
            .zip(p.accum.iter().zip(&p.lane_arity))
            .map(|(&inst, (groups, &arity))| {
                let instances: usize = groups.iter().map(|g| g.len() / arity).sum();
                LaneOutcome {
                    inst,
                    span: self.module.span_of(inst),
                    instances: instances as u64,
                    partitions: groups.len() as u64,
                    avg_partition_size: if groups.is_empty() {
                        0.0
                    } else {
                        instances as f64 / groups.len() as f64
                    },
                    reduction: false,
                    reports: (0..groups.len())
                        .map(|_| {
                            reports
                                .next()
                                .expect("one stride report per (lane, partition) shard")
                        })
                        .collect(),
                }
            })
            .collect();
        let stats = StreamStats {
            nodes: self.resolver.nodes() as u64,
            candidate_instances: lanes.iter().map(|l| l.instances).sum(),
            partitions: lanes.iter().map(|l| l.partitions).sum(),
            ..self.stats
        };
        let (metrics, per_inst) = assemble(lanes);
        Ok(StreamOutcome {
            metrics,
            per_inst,
            nodes: self.resolver.nodes(),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{analyze_program, stream_program, AnalysisOptions};

    /// A returned activation's register frame is released and reused, so
    /// the register shadow does not grow with the number of calls.
    #[test]
    fn returned_frames_are_released() {
        let peak = |calls: u32| {
            let src = format!(
                "double acc = 0.0;
                 double f(double x) {{ double y = x * 2.0; return y + 1.0; }}
                 void main() {{ for (int i = 0; i < {calls}; i++) {{ acc = acc + f((double)i); }} }}"
            );
            let module = vectorscope_frontend::compile("calls.kern", &src).unwrap();
            let options = AnalysisOptions {
                threads: 1,
                ..AnalysisOptions::default()
            };
            let batch = analyze_program(&module, &options).unwrap();
            let streamed = stream_program(&module, &options).unwrap();
            assert_eq!(batch.metrics, streamed.metrics, "{calls} calls");
            assert_eq!(batch.per_inst, streamed.per_inst, "{calls} calls");
            streamed.stats.peak_reg_shadow
        };
        assert_eq!(peak(10), peak(1000));
    }
}
