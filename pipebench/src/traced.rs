//! The traced pipeline: the driver's steps re-run from the benchmark, one
//! span around every call into a layer, in pipeline order — compile →
//! `Vm::with_options` → `run_main` (profile) → `run_main` (capture) →
//! `Ddg::try_build_with_policy` → `partition_all` →
//! `stride::analyze_partition` → `StreamingAnalyzer::{consume, finish}` →
//! `staticdep::analyze_loop` → `autovec::analyze_module` → `json::*`.
//!
//! It runs on one thread, so self times add up to wall time. Each step
//! mirrors `vectorscope::analyze_source` (and `analyze_program`) at one
//! thread; the workload checks hold the traced results to the same
//! expectations as the untraced ones.

use crate::alloc;
use crate::spans::Recorder;
use std::collections::HashSet;
use vectorscope::metrics::{InstMetrics, LoopMetrics, MetricOptions, VecLengthHistogram};
use vectorscope::{
    partition_all, AnalysisOptions, CandidatePolicy, Error, InstancePick, LoopReport, Partitions,
    StreamOutcome, StreamingAnalyzer, StrideReport, SuiteReport,
};
use vectorscope_ddg::Ddg;
use vectorscope_interp::{CaptureSpec, Vm, VmOptions};
use vectorscope_ir::Module;
use vectorscope_trace::Trace;

/// Runs traced pipeline steps into a [`Recorder`].
pub struct Tracer<'r> {
    /// Where spans and counters go.
    pub rec: &'r mut Recorder,
    options: AnalysisOptions,
    /// When set, every captured sub-trace is kept (with its module) for
    /// the streaming probe.
    pub subtraces: Option<Vec<(Module, Trace)>>,
    /// The largest DDG built so far, for the stride pool measurement.
    pub largest: Option<(Module, Ddg)>,
}

impl<'r> Tracer<'r> {
    /// A tracer running the default analysis at one thread.
    pub fn new(rec: &'r mut Recorder) -> Self {
        Tracer {
            rec,
            options: AnalysisOptions {
                threads: 1,
                ..AnalysisOptions::default()
            },
            subtraces: None,
            largest: None,
        }
    }

    /// Runs `f` under a root span; the span closes even when `f` fails.
    pub fn root<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.rec.enter(name);
        let out = f(self);
        self.rec.exit(id);
        out
    }

    fn vm_options(&self) -> VmOptions {
        VmOptions {
            fuel: self.options.fuel,
            engine: self.options.engine,
            ..VmOptions::default()
        }
    }

    fn policy(&self) -> CandidatePolicy {
        if self.options.include_integer_ops {
            CandidatePolicy::IntAndFloatArith
        } else {
            CandidatePolicy::FloatArith
        }
    }

    fn last_heap(&self) -> u64 {
        self.rec.spans().last().map_or(0, |s| s.heap_bytes) as u64
    }

    fn offer_largest(&mut self, module: &Module, ddg: Ddg) {
        if self
            .largest
            .as_ref()
            .is_none_or(|(_, d)| ddg.len() > d.len())
        {
            self.largest = Some((module.clone(), ddg));
        }
    }

    /// `vectorscope::analyze_source`, step by step.
    pub fn analyze_source(&mut self, name: &str, source: &str) -> Result<SuiteReport, Error> {
        let module = self.rec.leaf("frontend.compile", || {
            vectorscope_frontend::compile(name, source)
        })?;
        let vm_options = self.vm_options();
        let threshold = self.options.hot_threshold_pct;
        let pick = self.options.loop_instance;

        let mut vm = self.rec.leaf("interp.decode", || {
            Vm::with_options(&module, vm_options.clone())
        });
        self.rec.leaf("interp.profile", || vm.run_main())?;
        self.rec.add("profile.inst", vm.fuel_used());

        let (plans, inst_counts, branch_taken) = self.rec.leaf("driver.plan", || {
            let mut plans = Vec::new();
            for h in vm.profiler().hot_loops(&module, vm.forests(), threshold) {
                let key = h.profile.key;
                let function = module.function(key.func);
                let line = vm.forests()[key.func.index()]
                    .span_of(function, key.loop_id)
                    .line;
                if h.profile.entries == 0 {
                    return Err(Error::EmptyTrace {
                        func: function.name().to_string(),
                        line,
                    });
                }
                let instances = sampled_instances(pick, h.profile.entries);
                plans.push((key, line, h.profile.percent, instances));
            }
            Ok((plans, vm.inst_counts().to_vec(), vm.branch_taken().to_vec()))
        })?;
        drop(vm);

        let mut cap_vm = self
            .rec
            .leaf("interp.decode", || Vm::with_options(&module, vm_options));
        for (key, line, _, instances) in &plans {
            let label = format!("{}:{line}", module.function(key.func).name());
            for &instance in instances {
                let spec = CaptureSpec::Loop {
                    func: key.func,
                    loop_id: key.loop_id,
                    instance,
                };
                cap_vm.add_capture(spec, &label);
            }
        }
        let base = alloc::live();
        if !plans.is_empty() {
            self.rec.leaf("interp.capture", || cap_vm.run_main())?;
        }
        let traces = cap_vm.take_traces();
        let trace_bytes = alloc::live().saturating_sub(base) as u64;
        drop(cap_vm);
        let events: u64 = traces.iter().map(|t| t.len() as u64).sum();
        self.rec.add("capture.events", events);
        self.rec.add("driver.hot_loops", plans.len() as u64);
        self.rec.add("driver.captures", traces.len() as u64);
        self.rec.add("driver.subtrace_events", events);
        self.rec.max("trace.bytes", trace_bytes);
        self.rec.add("ddg.trace_counted_bytes", trace_bytes);

        let mut traces = traces.into_iter();
        let mut loops = Vec::with_capacity(plans.len());
        for (key, line, percent, instances) in plans {
            let mut best: Option<(Ddg, LoopMetrics, Vec<InstMetrics>)> = None;
            for trace in traces.by_ref().take(instances.len()) {
                if trace.is_empty() {
                    continue;
                }
                let (ddg, metrics, per_inst) = self.analyze_trace(&module, &trace)?;
                if let Some(kept) = self.subtraces.as_mut() {
                    kept.push((module.clone(), trace));
                }
                if best
                    .as_ref()
                    .is_none_or(|(_, m, _)| metrics.total_ops > m.total_ops)
                {
                    if let Some((old, _, _)) = best.replace((ddg, metrics, per_inst)) {
                        self.offer_largest(&module, old);
                    }
                } else {
                    self.offer_largest(&module, ddg);
                }
            }
            let function = module.function(key.func);
            let Some((ddg, metrics, per_inst)) = best else {
                return Err(Error::EmptyTrace {
                    func: function.name().to_string(),
                    line,
                });
            };
            let ddg_nodes = ddg.len();
            self.offer_largest(&module, ddg);
            loops.push(LoopReport {
                module_name: module.name().to_string(),
                func_name: function.name().to_string(),
                func: key.func,
                loop_id: key.loop_id,
                loop_line: line,
                percent_cycles: percent,
                percent_packed: None,
                control_irregularity: vectorscope::control::loop_irregularity(
                    &module,
                    key.func,
                    key.loop_id,
                    &inst_counts,
                    &branch_taken,
                ),
                metrics,
                per_inst,
                ddg_nodes,
            });
        }
        loops.sort_by(|a, b| b.percent_cycles.total_cmp(&a.percent_cycles));
        Ok(SuiteReport { module, loops })
    }

    /// DDG build, Algorithm 1 and the stride stage over one trace
    /// (`analyze_ddg` at one thread, without reduction breaking).
    fn analyze_trace(
        &mut self,
        module: &Module,
        trace: &Trace,
    ) -> Result<(Ddg, LoopMetrics, Vec<InstMetrics>), Error> {
        let policy = self.policy();
        let ddg = self.rec.leaf("ddg.build", || {
            Ddg::try_build_with_policy(module, trace, policy)
        })?;
        let ddg_heap = self.last_heap();
        self.rec.add("ddg.events", trace.len() as u64);
        self.rec.add("ddg.nodes", ddg.len() as u64);
        self.rec.add("ddg.edges", ddg.num_edges() as u64);
        self.rec.add("ddg.counted_bytes", ddg_heap);
        self.rec.add(
            "ddg.self_report_bytes",
            (ddg.memory_bytes() + trace.approx_bytes()) as u64,
        );

        let parts = self.rec.leaf("partition", || {
            let insts = ddg.candidate_insts();
            let empty = HashSet::new();
            let ignores: Vec<&HashSet<u32>> = insts.iter().map(|_| &empty).collect();
            partition_all(&ddg, &insts, &ignores)
        });
        self.rec.add("partition.nodes", ddg.len() as u64);

        let shards: Vec<(usize, usize)> = parts
            .iter()
            .enumerate()
            .flat_map(|(c, p)| (0..p.groups.len()).map(move |g| (c, g)))
            .collect();
        let reports: Vec<StrideReport> = self.rec.leaf("stride", || {
            let elems: Vec<u64> = parts.iter().map(|p| ddg.elem_size(p.inst)).collect();
            shards
                .iter()
                .map(|&(c, g)| {
                    vectorscope::stride::analyze_partition(&ddg, &parts[c].groups[g], elems[c])
                })
                .collect()
        });
        let ops: usize = parts.iter().map(Partitions::num_instances).sum();
        self.rec.add("stride.shards", shards.len() as u64);
        self.rec.add("stride.ops", ops as u64);

        let (metrics, per_inst) = self
            .rec
            .leaf("metrics.assemble", || assemble(module, &parts, reports));
        Ok((ddg, metrics, per_inst))
    }

    /// One whole-program capture run (the first half of both
    /// `analyze_program` and, buffered, `stream_program`). Returns the trace
    /// and the counted bytes it holds.
    fn capture_program(&mut self, name: &str, module: &Module) -> Result<(Trace, u64), Error> {
        let vm_options = self.vm_options();
        let mut vm = self
            .rec
            .leaf("interp.decode", || Vm::with_options(module, vm_options));
        vm.set_capture(CaptureSpec::Program, name);
        let base = alloc::live();
        self.rec.leaf("interp.capture", || vm.run_main())?;
        let trace = vm.take_trace().ok_or_else(|| Error::TraceUnavailable {
            what: format!("program capture of `{name}`"),
        })?;
        let bytes = alloc::live().saturating_sub(base) as u64;
        drop(vm);
        self.rec.add("capture.events", trace.len() as u64);
        self.rec.max("trace.bytes", bytes);
        Ok((trace, bytes))
    }

    /// `vectorscope::analyze_program`, step by step. Returns the metrics,
    /// the per-instruction rows and the DDG node count.
    pub fn program(
        &mut self,
        name: &str,
        module: &Module,
    ) -> Result<(LoopMetrics, Vec<InstMetrics>, usize), Error> {
        let (trace, trace_bytes) = self.capture_program(name, module)?;
        self.rec.add("ddg.trace_counted_bytes", trace_bytes);
        let (ddg, metrics, per_inst) = self.analyze_trace(module, &trace)?;
        drop(trace);
        let nodes = ddg.len();
        self.offer_largest(module, ddg);
        Ok((metrics, per_inst, nodes))
    }

    /// `vectorscope::stream_program` with the capture buffered first, so
    /// the VM run and the analyzer's `consume` get separate spans.
    pub fn stream(&mut self, name: &str, module: &Module) -> Result<StreamOutcome, Error> {
        let (trace, _) = self.capture_program(name, module)?;
        self.stream_trace(module, &trace)
    }

    /// Feeds one trace through a fresh streaming analyzer.
    pub fn stream_trace(&mut self, module: &Module, trace: &Trace) -> Result<StreamOutcome, Error> {
        let policy = self.policy();
        let mark = alloc::Mark::start();
        let mut analyzer = StreamingAnalyzer::new(module, policy);
        self.rec.leaf("stream.consume", || {
            for e in trace.events() {
                analyzer.consume(e);
            }
        });
        let metric_options = MetricOptions {
            break_reductions: false,
            threads: 1,
        };
        let outcome = self
            .rec
            .leaf("stream.finish", || analyzer.finish(&metric_options));
        let counted = mark.finish() as u64;
        let outcome = outcome?;
        self.rec.add("stream.events", outcome.stats.events);
        self.rec.max("stream.heap_bytes", counted);
        self.rec.add("stream.counted_bytes", counted);
        self.rec.add(
            "stream.self_report_bytes",
            outcome.stats.peak_resident_bytes() as u64,
        );
        Ok(outcome)
    }

    /// The analysis half of `vectorscope::analyze_gap`: the dynamic suite,
    /// then the static oracle and the dynamic re-analysis of every hot
    /// loop. The obligation bookkeeping between them is not re-run.
    pub fn gap(&mut self, name: &str, source: &str) -> Result<SuiteReport, Error> {
        let suite = self.analyze_source(name, source)?;
        let module = &suite.module;
        let decisions = self
            .rec
            .leaf("autovec", || vectorscope_autovec::analyze_module(module));
        for row in &suite.loops {
            self.rec.leaf("staticdep", || {
                vectorscope_staticdep::analyze_loop(module, row.func, row.loop_id)
            });
            let options = &self.options;
            let analysis = self.rec.leaf("gap.reanalyze", || {
                vectorscope::analyze_loop(module, row.func, row.loop_id, options)
            })?;
            self.rec.leaf("autovec", || {
                vectorscope_autovec::percent_packed(&decisions, &counts_of(&analysis.report))
            });
        }
        Ok(suite)
    }
}

/// `(instruction, dynamic instances)` of a report, as `percent_packed`
/// wants them.
pub fn counts_of(report: &LoopReport) -> Vec<(vectorscope_ir::InstId, u64)> {
    report
        .per_inst
        .iter()
        .map(|m| (m.inst, m.instances))
        .collect()
}

/// The dynamic loop instances the driver samples.
fn sampled_instances(pick: InstancePick, entries: u64) -> Vec<u64> {
    let clamp = |i: u64| i.min(entries - 1);
    match pick {
        InstancePick::Index(i) => vec![clamp(i)],
        InstancePick::Representative(k) => {
            let k = k.max(1);
            let mut v: Vec<u64> = (0..k).map(|s| clamp(s * entries / k)).collect();
            v.dedup();
            v
        }
    }
}

/// The metrics aggregation of `analyze_ddg`: per-candidate totals in
/// first-appearance order, rows sorted by instance count, ratios from
/// integer totals.
fn assemble(
    module: &Module,
    parts: &[Partitions],
    reports: Vec<StrideReport>,
) -> (LoopMetrics, Vec<InstMetrics>) {
    let mut reports = reports.into_iter();
    let mut per_inst = Vec::with_capacity(parts.len());
    let mut vec_lengths = VecLengthHistogram::default();
    let (mut total_ops, mut total_partitions) = (0u64, 0u64);
    let (mut unit_ops, mut unit_subparts) = (0u64, 0u64);
    let (mut non_unit_ops, mut non_unit_subparts) = (0u64, 0u64);
    for p in parts {
        let mut m = InstMetrics {
            inst: p.inst,
            span: module.span_of(p.inst),
            instances: p.num_instances() as u64,
            partitions: p.groups.len() as u64,
            avg_partition_size: p.average_size(),
            unit_ops: 0,
            unit_subparts: 0,
            non_unit_ops: 0,
            non_unit_subparts: 0,
            reduction: false,
        };
        for report in reports.by_ref().take(p.groups.len()) {
            m.unit_ops += report.unit_ops() as u64;
            m.unit_subparts += report.unit.len() as u64;
            m.non_unit_ops += report.non_unit_ops() as u64;
            m.non_unit_subparts += report.non_unit.len() as u64;
            for sub in &report.unit {
                let k = (usize::BITS - 1 - sub.len().leading_zeros()) as usize;
                vec_lengths.buckets[(k - 1).min(vec_lengths.buckets.len() - 1)] += sub.len() as u64;
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
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let pct = |x: u64| {
        if total_ops == 0 {
            0.0
        } else {
            x as f64 * 100.0 / total_ops as f64
        }
    };
    let metrics = LoopMetrics {
        total_ops,
        avg_concurrency: ratio(total_ops, total_partitions),
        pct_unit_vec_ops: pct(unit_ops),
        avg_unit_vec_size: ratio(unit_ops, unit_subparts),
        pct_non_unit_vec_ops: pct(non_unit_ops),
        avg_non_unit_vec_size: ratio(non_unit_ops, non_unit_subparts),
        vec_lengths,
    };
    (metrics, per_inst)
}
