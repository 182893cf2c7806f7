//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into each layer, kept in a
//! vector, and summarized once the pass is over. A span's self time is its
//! duration minus the time its child spans cover; the traced run is single
//! threaded, so children never overlap and the self times of a subtree sum
//! to its root's duration.

use crate::alloc::Mark;
use std::collections::HashMap;
use std::time::Instant;

/// What a root span stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Generating, compiling and verifying the inputs.
    Setup,
    /// One of the workload's measured operations (`op.*` roots).
    Op,
    /// Layers the operations skip, run once per pass so every layer has a
    /// measured time on every workload: the traced result line carries
    /// every per-layer metric, and a time that reads 0 on every run is no
    /// measurement. The report lists the layers taken from here.
    Probe,
}

impl Phase {
    fn of_root(name: &str) -> Phase {
        if name == "setup" {
            Phase::Setup
        } else if name.starts_with("op.") {
            Phase::Op
        } else {
            Phase::Probe
        }
    }
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`ddg.build`, `stride`, ...) or root name.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Counted heap high-water above the live bytes at span start.
    pub heap_bytes: usize,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A work counter attached to the root span open when it was recorded.
#[derive(Debug, Clone, Copy)]
enum Agg {
    Sum,
    Max,
}

/// Collects spans and counters of one traced pass.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Mark)>,
    counts: Vec<(usize, &'static str, u64, Agg)>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().map(|&(p, _)| p);
        self.spans.push(Span {
            name,
            parent,
            start_ns: 0,
            end_ns: 0,
            heap_bytes: 0,
        });
        let mark = Mark::start();
        self.spans[id].start_ns = self.now_ns();
        self.open.push((id, mark));
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        let (top, mark) = self.open.pop().expect("a span is open");
        assert_eq!(top, id, "spans close in LIFO order");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.heap_bytes = mark.finish();
    }

    /// Runs `f` inside a span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    fn root(&self) -> usize {
        self.open
            .first()
            .expect("counters are recorded inside a root span")
            .0
    }

    /// Adds `n` to counter `key` of the current root span.
    pub fn add(&mut self, key: &'static str, n: u64) {
        let root = self.root();
        self.counts.push((root, key, n, Agg::Sum));
    }

    /// Raises counter `key` of the current root span to at least `n`.
    pub fn max(&mut self, key: &'static str, n: u64) {
        let root = self.root();
        self.counts.push((root, key, n, Agg::Max));
    }

    /// The closed spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration_ns();
            }
        }
        own
    }

    fn root_of(&self, mut i: usize) -> usize {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        i
    }

    /// Sums the pass into per-(phase, layer) totals. Root spans count
    /// toward `root_self_ns` (time no layer span covered) and
    /// `root_total_ns`, not toward a layer.
    pub fn layers(&self) -> Layers {
        let own = self.self_ns();
        let mut out = Layers::default();
        for (i, s) in self.spans.iter().enumerate() {
            let root = self.root_of(i);
            let phase = Phase::of_root(self.spans[root].name);
            if i == root {
                *out.root_self_ns.entry(phase).or_default() += own[i];
                *out.root_total_ns.entry(phase).or_default() += s.duration_ns();
                continue;
            }
            let l = out.layer.entry((phase, s.name)).or_default();
            l.ns += own[i];
            l.heap_bytes = l.heap_bytes.max(s.heap_bytes);
        }
        for &(root, key, n, agg) in &self.counts {
            let phase = Phase::of_root(self.spans[root].name);
            let c = out.counts.entry((phase, key)).or_default();
            match agg {
                Agg::Sum => *c += n,
                Agg::Max => *c = (*c).max(n),
            }
        }
        out
    }
}

/// Time and heap of one layer within one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    /// Summed self time.
    pub ns: u64,
    /// Largest heap high-water of any one span of the layer.
    pub heap_bytes: usize,
}

/// A pass's spans and counters, summed per phase.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Per (phase, layer name).
    pub layer: HashMap<(Phase, &'static str), LayerStat>,
    /// Per (phase, counter name).
    pub counts: HashMap<(Phase, &'static str), u64>,
    /// Root self time per phase (work outside every layer span).
    pub root_self_ns: HashMap<Phase, u64>,
    /// Root duration per phase.
    pub root_total_ns: HashMap<Phase, u64>,
}

impl Layers {
    /// Adds another recorder's totals (the traced set-up) to these.
    pub fn merge(&mut self, other: &Layers) {
        for (k, v) in &other.layer {
            let l = self.layer.entry(*k).or_default();
            l.ns += v.ns;
            l.heap_bytes = l.heap_bytes.max(v.heap_bytes);
        }
        for (k, v) in &other.counts {
            *self.counts.entry(*k).or_default() += v;
        }
        for (k, v) in &other.root_self_ns {
            *self.root_self_ns.entry(*k).or_default() += v;
        }
        for (k, v) in &other.root_total_ns {
            *self.root_total_ns.entry(*k).or_default() += v;
        }
    }

    /// The phase a layer is reported from: the operations when they run
    /// it, else the set-up, else the probe.
    pub fn phase_of(&self, layer: &str) -> Phase {
        [Phase::Op, Phase::Setup, Phase::Probe]
            .into_iter()
            .find(|&p| self.layer.get(&(p, layer)).is_some_and(|l| l.ns > 0))
            .unwrap_or(Phase::Op)
    }

    /// A layer's stat in the phase it is reported from.
    pub fn stat(&self, layer: &str) -> LayerStat {
        let phase = self.phase_of(layer);
        self.layer.get(&(phase, layer)).copied().unwrap_or_default()
    }

    /// Counter `key`, read from the phase `layer` is reported from.
    pub fn count(&self, layer: &str, key: &str) -> u64 {
        let phase = self.phase_of(layer);
        self.counts.get(&(phase, key)).copied().unwrap_or(0)
    }

    /// The layers reported from the probe, sorted: no operation or set-up
    /// span runs them on this workload.
    pub fn probe_layers(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self
            .layer
            .keys()
            .filter(|&&(p, name)| p == Phase::Probe && self.phase_of(name) == Phase::Probe)
            .map(|&(_, name)| name)
            .collect();
        names.sort_unstable();
        names
    }

    /// Summed self time of every layer span under an operation root.
    pub fn op_layer_ns(&self) -> u64 {
        self.layer
            .iter()
            .filter(|((p, _), _)| *p == Phase::Op)
            .map(|(_, l)| l.ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Heap marks reset a process-wide high-water mark, so tests that open
    /// spans take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_sum_to_the_parent_span() {
        let _turn = SERIAL.lock().expect("no test panicked holding the lock");
        let mut rec = Recorder::new();
        let root = rec.enter("op.test");
        busy(200_000);
        let a = rec.enter("ddg.build");
        busy(300_000);
        rec.leaf("partition", || busy(100_000));
        rec.exit(a);
        rec.leaf("stride", || busy(150_000));
        rec.exit(root);

        let own = rec.self_ns();
        let spans = rec.spans();
        // Every subtree's self times add up to its root's duration.
        for (i, s) in spans.iter().enumerate() {
            let subtree: u64 = (0..spans.len())
                .filter(|&j| {
                    let mut k = j;
                    loop {
                        if k == i {
                            return true;
                        }
                        match spans[k].parent {
                            Some(p) => k = p,
                            None => return false,
                        }
                    }
                })
                .map(|j| own[j])
                .sum();
            assert_eq!(subtree, s.duration_ns(), "subtree of {}", s.name);
        }
        assert!(own[a] >= 300_000 && own[a] < spans[a].duration_ns());

        let layers = rec.layers();
        let total = layers.op_layer_ns() + layers.root_self_ns[&Phase::Op];
        assert_eq!(total, layers.root_total_ns[&Phase::Op]);
        assert_eq!(layers.phase_of("stride"), Phase::Op);
    }

    #[test]
    fn layers_fall_back_to_setup_then_probe() {
        let _turn = SERIAL.lock().expect("no test panicked holding the lock");
        let mut rec = Recorder::new();
        let op = rec.enter("op.test");
        rec.leaf("ddg.build", || busy(10_000));
        rec.add("ddg.nodes", 5);
        rec.exit(op);
        let probe = rec.enter("probe");
        rec.leaf("ddg.build", || busy(10_000));
        rec.leaf("stream.consume", || busy(10_000));
        rec.add("ddg.nodes", 7);
        rec.max("stream.heap", 3);
        rec.max("stream.heap", 2);
        rec.exit(probe);

        let mut setup = Recorder::new();
        let s = setup.enter("setup");
        setup.leaf("frontend.compile", || busy(10_000));
        setup.exit(s);

        let mut layers = rec.layers();
        layers.merge(&setup.layers());
        assert_eq!(layers.phase_of("ddg.build"), Phase::Op);
        assert_eq!(layers.count("ddg.build", "ddg.nodes"), 5);
        assert_eq!(layers.phase_of("frontend.compile"), Phase::Setup);
        assert_eq!(layers.phase_of("stream.consume"), Phase::Probe);
        assert_eq!(layers.count("stream.consume", "stream.heap"), 3);
        assert_eq!(layers.probe_layers(), ["stream.consume"]);
    }

    #[test]
    fn nested_marks_keep_the_outer_peak() {
        let _turn = SERIAL.lock().expect("no test panicked holding the lock");
        let mut rec = Recorder::new();
        let outer = rec.enter("op.test");
        let big = vec![0u8; 1 << 20];
        drop(std::hint::black_box(big));
        rec.leaf("small", || std::hint::black_box(vec![0u8; 1 << 10]).len());
        rec.exit(outer);
        assert!(rec.spans()[outer].heap_bytes >= 1 << 20);
        let inner = rec.spans()[1].heap_bytes;
        assert!((1 << 10..1 << 20).contains(&inner), "inner {inner}");
    }
}
