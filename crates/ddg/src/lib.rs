//! Dynamic data-dependence graph (DDG) construction and prior-work
//! parallelism baselines.
//!
//! The DDG is the paper's central data structure (§3): one node per dynamic
//! instance of a static instruction, with edges for **flow (true)
//! dependences only** — through memory (a load depends on the last store to
//! the same address) and through virtual registers (a use depends on the
//! last definition of the register *within the same function activation*).
//! Anti-, output-, and control dependences are deliberately excluded.
//!
//! Construction replays a [`vectorscope_trace::Trace`] against the static
//! [`vectorscope_ir::Module`]: trace events carry only dynamic facts
//! (addresses, activation ids); operand structure comes from the IR. Call
//! and return events do not create nodes — dependences flow *through* them:
//! a callee's parameter use resolves to the caller-side producer of the
//! argument, and a call's result register resolves to the producer of the
//! returned value. This keeps paths between floating-point operations
//! precise across "multiple levels of function calls" (paper §4.2) without
//! inserting artificial merge points.
//!
//! The last-writer rules live in [`resolve`], the one resolver this crate
//! and the streaming engine (`vectorscope::stream`) share; the builder here
//! only turns each resolved instance into a node and its operand row.
//! [`DdgBuilder`] takes events one at a time, so a VM sink can build the
//! graph while the program runs, without buffering a trace.
//!
//! Execution order is a topological order of the DDG, so all downstream
//! analyses are single forward scans: [`Ddg::operand_rows`] yields every
//! node's operand writers in node order. The graph stores one operand count
//! per node, not an offset, so random access ([`Ddg::operand_writers`]) is
//! the slower path, kept for queries and test oracles.
//!
//! Two prior-work baselines the paper contrasts against (§2.1) are also
//! implemented here:
//!
//! * [`kumar`] — whole-DAG timestamping (Kumar 1988): fine-grained
//!   parallelism profile and critical path (Fig. 1(a)),
//! * [`looplevel`] — Larus-style loop-level parallelism, where iterations
//!   execute internally in order and only cross-iteration independence is
//!   exploited (Fig. 2(b)).

#![deny(missing_docs)]

pub mod dot;
pub mod kumar;
pub mod looplevel;
pub mod resolve;

use resolve::{Access, Handler, NodeEvent, Resolver, Writer};
use vectorscope_ir::{Inst, InstId, InstKind, Module};
use vectorscope_trace::{Trace, TraceEvent};

/// Sentinel in operand-writer lists: the operand had no producer inside the
/// trace (immediate, or value produced before capture started).
pub const EXTERNAL: u32 = u32::MAX;

/// Error raised while building a DDG from a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The trace has too many node-producing events for `u32` node ids:
    /// node id `u32::MAX` would collide with the [`EXTERNAL`] sentinel,
    /// and anything past it would silently truncate and corrupt every
    /// dependence edge. (The operand-writer array is bounded the same way.)
    TraceTooLarge {
        /// How many nodes the trace tried to create (saturated count).
        nodes: usize,
    },
    /// An instruction instance has more than 255 operands: a node stores
    /// its operand count in one byte.
    TooManyOperands {
        /// The offending instruction.
        inst: InstId,
    },
    /// A load or store event carries no address, so its memory dependence
    /// cannot be resolved (a corrupt or foreign trace; the VM always
    /// records one).
    MissingAddress {
        /// The memory instruction of the offending event.
        inst: InstId,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::TraceTooLarge { nodes } => write!(
                f,
                "trace produces {nodes}+ DDG nodes; u32 node ids support at most {}",
                u32::MAX - 1
            ),
            BuildError::MissingAddress { inst } => {
                write!(
                    f,
                    "trace event of memory instruction #{} has no address",
                    inst.0
                )
            }
            BuildError::TooManyOperands { inst } => write!(
                f,
                "instruction #{} has more than {} operands, the most a DDG node holds",
                inst.0,
                u8::MAX
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Checked conversion of a prospective node id to `u32`.
///
/// `u32::MAX` itself is rejected: it is the [`EXTERNAL`] sentinel, so a
/// graph may hold at most `u32::MAX` nodes (ids `0..u32::MAX`).
pub fn checked_node_id(len: usize) -> Result<u32, BuildError> {
    if len >= u32::MAX as usize {
        Err(BuildError::TraceTooLarge { nodes: len })
    } else {
        Ok(len as u32)
    }
}

/// Which instructions count as *candidates* whose SIMD potential is
/// characterized.
///
/// The paper's default restricts the characterization to floating-point
/// add/sub/mul/div ("the set of floating-point instructions that have
/// vector counterparts in SIMD architectures", §3) but notes that "such
/// analysis can be carried out for any type of operations, e.g., integer
/// arithmetic" (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidatePolicy {
    /// FP add/sub/mul/div only (the paper's configuration).
    #[default]
    FloatArith,
    /// FP and integer add/sub/mul/div (the §4 generalization). Loop
    /// book-keeping still participates only through dependences: an
    /// integer candidate must not be part of an address computation chain
    /// feeding only geps — but distinguishing that statically is the
    /// caller's business; here every integer arithmetic instruction is
    /// characterized.
    IntAndFloatArith,
}

impl CandidatePolicy {
    /// The element size in bytes of `inst`'s operands if `inst` is a
    /// candidate under this policy — the unit the stride check compares
    /// against — or `None` if it is not a candidate.
    pub fn candidate_elem_size(self, inst: &Inst) -> Option<u64> {
        match &inst.kind {
            InstKind::Bin { ty, .. }
                if inst.is_fp_candidate()
                    || (self == CandidatePolicy::IntAndFloatArith && ty.is_int()) =>
            {
                Some(ty.size())
            }
            _ => None,
        }
    }
}

/// Slots a [`reserve_lean`] step adds at least.
const LEAN_FLOOR: usize = 4096;

/// Nodes per [`Mark`]: one bit of its memory word each, and
/// [`Ddg::operand_writers`] adds up at most `MARK_EVERY - 1` operand counts
/// after the nearest mark.
const MARK_EVERY: usize = 64;

/// Makes room for `additional` more elements in `v`, growing its capacity
/// by one eighth (at least a few thousand slots) instead of `Vec`'s
/// doubling.
///
/// The DDG's per-node columns grow to hundreds of megabytes on
/// whole-program runs; doubling leaves up to half of each allocation
/// unused while they grow, growing by eighths at most a ninth. Large
/// blocks are resized by remapping pages (glibc uses `mremap`), so the
/// extra growth steps do not copy the data again. [`DdgBuilder::finish`]
/// then trims every column to its length. The floor would dwarf a small
/// column, so the marks (one entry per 64 nodes) grow with plain `push`:
/// they stay small next to the per-node columns.
pub fn reserve_lean<T>(v: &mut Vec<T>, additional: usize) {
    if v.capacity() - v.len() < additional {
        v.reserve_exact((v.capacity() / 8).max(LEAN_FLOOR).max(additional));
    }
}

/// What the nodes of one static instruction are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeClass {
    Load,
    Store,
    Candidate,
    /// Produces a floating-point value but is not a candidate (FP copies,
    /// negation, intrinsics, int-to-float casts).
    FloatOther,
    Other,
}

/// The per-instruction entry of a [`Ddg`]'s class table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InstClass {
    class: NodeClass,
    /// Element size in bytes of a candidate's operands (0 for the other
    /// classes) — the unit the stride check compares against.
    elem: u64,
    /// The instruction's nodes (it fits in the entry's padding).
    nodes: u32,
}

/// What the graph keeps per [`MARK_EVERY`] nodes, for random access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mark {
    /// The `op_writers` offset of the mark's first node.
    row: u32,
    /// Memory (load or store) nodes before the mark's first node: the
    /// `addrs` slot of the first memory node at or after it.
    rank: u32,
    /// Bit `i` is set if node `mark * MARK_EVERY + i` is a load or store.
    memory: u64,
}

/// The dynamic data-dependence graph of one captured (sub)trace.
///
/// # Example
///
/// ```
/// use vectorscope_interp::{Vm, CaptureSpec};
///
/// let src = r#"
///     const int N = 4;
///     double a[N];
///     void main() { for (int i = 0; i < N; i++) { a[i] = a[i] + 1.0; } }
/// "#;
/// let module = vectorscope_frontend::compile("m.kern", src).unwrap();
/// let mut vm = Vm::new(&module);
/// vm.set_capture(CaptureSpec::Program, "all");
/// vm.run_main().unwrap();
/// let trace = vm.take_trace().unwrap();
/// let ddg = vectorscope_ddg::Ddg::build(&module, &trace);
/// assert!(ddg.len() > 0);
/// assert_eq!(ddg.candidate_nodes().count(), 4); // four fadd instances
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ddg {
    /// The static instruction of each node.
    insts: Vec<InstId>,
    /// The accessed address of each load and store node, in node order:
    /// a memory node's slot is its rank among memory nodes
    /// ([`Ddg::memory_slot`]). Other nodes have no address to store.
    addrs: Vec<u64>,
    /// The operand count of each node: its row's length in `op_writers`.
    arities: Vec<u8>,
    /// The operand-row offset, memory rank and memory bits of every
    /// [`MARK_EVERY`]th node (`marks[i]` is node `i * MARK_EVERY`'s).
    marks: Vec<Mark>,
    /// Operand writers in operand order, node after node; [`EXTERNAL`]
    /// marks missing ones.
    op_writers: Vec<u32>,
    /// The class of each static instruction's nodes, by [`InstId`]
    /// (`None` for instructions without a node): the class depends only on
    /// the static instruction, so no node stores it.
    classes: Vec<Option<InstClass>>,
}

impl Ddg {
    /// Builds the DDG for `trace`, resolving operand structure against
    /// `module`, characterizing FP arithmetic (the paper's default).
    ///
    /// Events whose instruction ids are unknown to the module are ignored
    /// (they cannot arise from the in-repo pipeline).
    ///
    /// # Panics
    ///
    /// Panics where [`Ddg::try_build`] returns an error.
    pub fn build(module: &Module, trace: &Trace) -> Ddg {
        Ddg::try_build(module, trace).expect("trace builds a DDG")
    }

    /// Fallible variant of [`Ddg::build`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::TraceTooLarge`] if the trace would create
    /// ≥ 2^32 − 1 nodes (the last id collides with [`EXTERNAL`]),
    /// [`BuildError::MissingAddress`] for a load or store event without an
    /// address, and [`BuildError::TooManyOperands`] for an instance with
    /// more than 255 operands.
    pub fn try_build(module: &Module, trace: &Trace) -> Result<Ddg, BuildError> {
        Ddg::try_build_with_policy(module, trace, CandidatePolicy::FloatArith)
    }

    /// Like [`Ddg::try_build`], but with an explicit [`CandidatePolicy`].
    ///
    /// # Errors
    ///
    /// The errors of [`Ddg::try_build`].
    pub fn try_build_with_policy(
        module: &Module,
        trace: &Trace,
        policy: CandidatePolicy,
    ) -> Result<Ddg, BuildError> {
        let mut builder = DdgBuilder::new(module, policy);
        for event in trace {
            builder.push(event);
        }
        builder.finish()
    }

    /// Number of nodes (dynamic instruction instances).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Bytes of the graph's data, counted by length: the per-node
    /// instruction and operand-count columns (5 bytes a node), the
    /// addresses of the load and store nodes (8 bytes each), the marks
    /// (16 bytes per 64 nodes), the operand writers and the per-instruction
    /// class table. A graph from [`DdgBuilder::finish`] holds its columns
    /// at their length, so this is also what it allocates. This is the batch
    /// engine's peak-memory denominator in the streaming-vs-batch
    /// comparison (`vscope stats` and the memory budget in
    /// `tests/streaming.rs`).
    pub fn memory_bytes(&self) -> usize {
        self.insts.len() * std::mem::size_of::<InstId>()
            + self.addrs.len() * std::mem::size_of::<u64>()
            + self.arities.len()
            + self.marks.len() * std::mem::size_of::<Mark>()
            + self.op_writers.len() * std::mem::size_of::<u32>()
            + self.classes.len() * std::mem::size_of::<Option<InstClass>>()
    }

    /// The static instruction of node `n`.
    pub fn inst(&self, n: u32) -> InstId {
        self.insts[n as usize]
    }

    /// The class of node `n`, from its instruction's table entry.
    fn class(&self, n: u32) -> NodeClass {
        self.classes[self.inst(n).index()].map_or(NodeClass::Other, |c| c.class)
    }

    /// The dynamic memory address of node `n`, if it is a load or store.
    pub fn addr(&self, n: u32) -> Option<u64> {
        match self.class(n) {
            NodeClass::Load | NodeClass::Store => Some(self.addrs[self.memory_slot(n)]),
            _ => None,
        }
    }

    /// The `addrs` slot of memory node `n`: the memory nodes before it, in
    /// O(1) from its mark's rank and the lower bits of the mark's word.
    fn memory_slot(&self, n: u32) -> usize {
        let n = n as usize;
        let mark = &self.marks[n / MARK_EVERY];
        let below = mark.memory & ((1u64 << (n % MARK_EVERY)) - 1);
        mark.rank as usize + below.count_ones() as usize
    }

    /// Whether node `n` is a floating-point candidate instance.
    pub fn is_candidate(&self, n: u32) -> bool {
        self.class(n) == NodeClass::Candidate
    }

    /// Whether node `n` is a load.
    pub fn is_load(&self, n: u32) -> bool {
        self.class(n) == NodeClass::Load
    }

    /// Whether node `n` carries *data* (a memory access or a floating-point
    /// value) as opposed to loop-control integer/address computation.
    ///
    /// The Larus-style loop-level baseline orders iterations only on data
    /// flow: induction-variable recurrences are loop control, not data.
    pub fn is_data_node(&self, n: u32) -> bool {
        self.class(n) != NodeClass::Other
    }

    /// Operand writers of node `n` in operand order ([`EXTERNAL`] = none).
    ///
    /// Random access adds up the operand counts since the nearest mark (at
    /// most 63 of them); a pass over every node should use
    /// [`Ddg::operand_rows`] instead.
    pub fn operand_writers(&self, n: u32) -> &[u32] {
        let n = n as usize;
        let mark = n / MARK_EVERY;
        let lo = self.marks[mark].row as usize
            + self.arities[mark * MARK_EVERY..n]
                .iter()
                .map(|&a| usize::from(a))
                .sum::<usize>();
        &self.op_writers[lo..lo + usize::from(self.arities[n])]
    }

    /// Every node's operand writers ([`Ddg::operand_writers`]), in node
    /// order: the forward walk all whole-graph analyses use.
    pub fn operand_rows(&self) -> impl Iterator<Item = &[u32]> + '_ {
        let mut rest = &self.op_writers[..];
        self.arities.iter().map(move |&a| {
            let (row, tail) = rest.split_at(usize::from(a));
            rest = tail;
            row
        })
    }

    /// Flow predecessors of node `n` (deduplicated not guaranteed; external
    /// operands skipped).
    pub fn preds(&self, n: u32) -> impl Iterator<Item = u32> + '_ {
        self.operand_writers(n)
            .iter()
            .copied()
            .filter(|&w| w != EXTERNAL)
    }

    /// Indices of candidate (FP arithmetic) nodes in execution order.
    pub fn candidate_nodes(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len() as u32).filter(|&n| self.is_candidate(n))
    }

    /// Distinct static candidate instructions present, in first-appearance
    /// order.
    pub fn candidate_insts(&self) -> Vec<InstId> {
        let mut seen = vec![false; self.classes.len()];
        let mut out = Vec::new();
        for n in self.candidate_nodes() {
            let id = self.inst(n);
            if !std::mem::replace(&mut seen[id.index()], true) {
                out.push(id);
            }
        }
        out
    }

    /// The operand *address tuple* of a candidate node (paper §3.2): for
    /// each input operand, the dynamic address of the load that produced it,
    /// or 0 for immediates and register-computed values.
    pub fn operand_addrs(&self, n: u32) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.operand_writers(n).len());
        self.push_operand_addrs(n, &mut out);
        out
    }

    /// Appends node `n`'s operand address tuple (see
    /// [`Ddg::operand_addrs`]) onto `out` without allocating a per-node
    /// vector — the stride analysis builds its flat key arenas with this.
    pub fn push_operand_addrs(&self, n: u32, out: &mut Vec<u64>) {
        out.extend(self.operand_writers(n).iter().map(|&w| self.load_addr(w)));
    }

    /// What operand writer `w` contributes to an address tuple: its address
    /// if it is a load, else 0 (also for [`EXTERNAL`]).
    pub fn load_addr(&self, w: u32) -> u64 {
        if w != EXTERNAL && self.is_load(w) {
            self.addrs[self.memory_slot(w)]
        } else {
            0
        }
    }

    /// The number of candidate instances of `inst` in the graph: its node
    /// count if it is a candidate, else 0. O(1), from the class table.
    pub fn candidate_instances(&self, inst: InstId) -> usize {
        match self.classes.get(inst.index()) {
            Some(&Some(InstClass {
                class: NodeClass::Candidate,
                nodes,
                ..
            })) => nodes as usize,
            _ => 0,
        }
    }

    /// Element size (in bytes) of values flowing into candidate instances of
    /// `inst` — the unit the stride check compares against.
    pub fn elem_size(&self, inst: InstId) -> u64 {
        match self.classes.get(inst.index()) {
            Some(&Some(InstClass {
                class: NodeClass::Candidate,
                elem,
                ..
            })) => elem,
            _ => 8,
        }
    }

    /// Total number of flow edges.
    pub fn num_edges(&self) -> usize {
        self.op_writers.iter().filter(|&&w| w != EXTERNAL).count()
    }

    /// Finds a dynamic flow edge from an instance of static instruction
    /// `source` to an instance of `sink`, returning the `(writer, reader)`
    /// node pair of the first such edge in execution order.
    ///
    /// This is the static↔dynamic witness query: a statically proven flow
    /// dependence whose distance fits the observed trip count must show up
    /// here, or the DDG dropped an edge.
    pub fn find_flow_edge(&self, source: InstId, sink: InstId) -> Option<(u32, u32)> {
        (0..self.len() as u32)
            .zip(self.operand_rows())
            .filter(|&(n, _)| self.inst(n) == sink)
            .find_map(|(n, row)| {
                row.iter()
                    .find(|&&w| w != EXTERNAL && self.inst(w) == source)
                    .map(|&w| (w, n))
            })
    }

    /// Whether any dynamic flow edge runs from an instance of `source` to
    /// an instance of `sink`.
    pub fn has_flow_edge(&self, source: InstId, sink: InstId) -> bool {
        self.find_flow_edge(source, sink).is_some()
    }

    /// Builds a DDG directly from node descriptions, without a trace.
    ///
    /// Intended for tests and tools that want to exercise the analyses on
    /// hand-crafted graphs (e.g. property tests on random DAGs). Nodes must
    /// be listed in a topological order: every writer index must be smaller
    /// than the node's own index (or [`EXTERNAL`]). Candidates get the
    /// default element size, 8 bytes.
    ///
    /// # Panics
    ///
    /// Panics if a writer index is forward-referencing, if a node has more
    /// than 255 writers (a node stores its operand count in one byte), or
    /// if two nodes of the same [`InstId`] have different classes (a graph
    /// stores one class per static instruction); the message names the
    /// `InstId`.
    pub fn synthetic(nodes: Vec<SyntheticNode>) -> Ddg {
        let mut out = Ddg::empty();
        for (i, n) in nodes.into_iter().enumerate() {
            for &w in &n.writers {
                assert!(
                    w == EXTERNAL || (w as usize) < i,
                    "synthetic node {i} references future writer {w}"
                );
            }
            let (class, elem, addr) = match n.class {
                SyntheticClass::Load => (NodeClass::Load, 0, Some(n.addr)),
                SyntheticClass::Store => (NodeClass::Store, 0, Some(n.addr)),
                SyntheticClass::Candidate => (NodeClass::Candidate, 8, None),
                SyntheticClass::Other => (NodeClass::Other, 0, None),
            };
            let class = InstClass {
                class,
                elem,
                nodes: 0,
            };
            let recorded = out.classify(n.inst, || class);
            assert!(
                (recorded.class, recorded.elem) == (class.class, class.elem),
                "synthetic node {i} gives instruction #{} the class {:?}, \
                 but an earlier node gave it {:?}",
                n.inst.0,
                class.class,
                recorded.class
            );
            let arity = u8::try_from(n.writers.len()).unwrap_or_else(|_| {
                panic!(
                    "synthetic node {i} has {} writers; a node holds at most {}",
                    n.writers.len(),
                    u8::MAX
                )
            });
            reserve_lean(&mut out.op_writers, n.writers.len());
            out.op_writers.extend_from_slice(&n.writers);
            out.push_node(n.inst, addr, arity);
        }
        out
    }
}

/// Node classification for [`Ddg::synthetic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyntheticClass {
    /// A memory read (its `addr` feeds operand address tuples).
    Load,
    /// A memory write.
    Store,
    /// A floating-point candidate instance.
    Candidate,
    /// Anything else.
    Other,
}

/// One node description for [`Ddg::synthetic`].
#[derive(Debug, Clone)]
pub struct SyntheticNode {
    /// Static instruction id.
    pub inst: InstId,
    /// Memory address (kept for loads and stores; ignored otherwise).
    pub addr: u64,
    /// Classification.
    pub class: SyntheticClass,
    /// Operand writers in operand order ([`EXTERNAL`] allowed).
    pub writers: Vec<u32>,
}

/// Builds a [`Ddg`] incrementally, one trace event at a time.
///
/// [`Ddg::try_build_with_policy`] is a loop over a buffered trace; a VM
/// sink (`Vm::add_sink` in `vectorscope_interp`) can push the events as
/// they are emitted instead, so the trace is never held in memory.
pub struct DdgBuilder<'m> {
    resolver: Resolver<'m, ()>,
    nodes: NodeSink,
}

impl<'m> DdgBuilder<'m> {
    /// An empty graph over `module`, with candidates chosen by `policy`.
    pub fn new(module: &'m Module, policy: CandidatePolicy) -> Self {
        DdgBuilder {
            resolver: Resolver::new(module, policy),
            nodes: NodeSink {
                ddg: Ddg::empty(),
                arity: 0,
                error: None,
            },
        }
    }

    /// Adds one event of the capture region, in execution order.
    pub fn push(&mut self, event: &TraceEvent) {
        if self.nodes.error.is_none() {
            if let Err(e) = self.resolver.step(event, &mut self.nodes) {
                self.nodes.error = Some(e);
            }
        }
    }

    /// The graph of the events pushed so far, each column trimmed to its
    /// length.
    ///
    /// # Errors
    ///
    /// The first error any event raised: the errors of [`Ddg::try_build`].
    pub fn finish(self) -> Result<Ddg, BuildError> {
        match self.nodes.error {
            Some(e) => Err(e),
            None => {
                let mut ddg = self.nodes.ddg;
                ddg.shrink_to_fit();
                Ok(ddg)
            }
        }
    }
}

/// The DDG's payload handler: one node and one operand row per resolved
/// instance. Writer identity is the resolver's sequence number, which is
/// exactly the node id, so the payload is empty.
struct NodeSink {
    ddg: Ddg,
    /// Operands pushed for the pending node.
    arity: usize,
    /// The first error; the builder then ignores later events.
    error: Option<BuildError>,
}

impl Ddg {
    fn empty() -> Ddg {
        Ddg {
            insts: Vec::new(),
            addrs: Vec::new(),
            arities: Vec::new(),
            marks: Vec::new(),
            op_writers: Vec::new(),
            classes: Vec::new(),
        }
    }

    /// Frees the columns' growth slack: the finished graph stays live
    /// through every analysis of it.
    fn shrink_to_fit(&mut self) {
        self.insts.shrink_to_fit();
        self.addrs.shrink_to_fit();
        self.arities.shrink_to_fit();
        self.marks.shrink_to_fit();
        self.op_writers.shrink_to_fit();
        self.classes.shrink_to_fit();
    }

    /// The class table entry of `inst`, made from `class` if it has none,
    /// counting one more node of it.
    fn classify(&mut self, inst: InstId, class: impl FnOnce() -> InstClass) -> InstClass {
        let i = inst.index();
        if i >= self.classes.len() {
            self.classes.resize(i + 1, None);
        }
        let entry = self.classes[i].get_or_insert_with(class);
        entry.nodes += 1;
        *entry
    }

    /// Appends a node of a classified instruction whose `arity` operand
    /// writers were pushed onto `op_writers`; `addr` is the accessed
    /// address of a load or store, `None` for other nodes.
    fn push_node(&mut self, inst: InstId, addr: Option<u64>, arity: u8) {
        let n = self.insts.len();
        if n.is_multiple_of(MARK_EVERY) {
            let row = self.op_writers.len() - usize::from(arity);
            self.marks.push(Mark {
                row: u32::try_from(row).expect("the resolver bounds operands by u32"),
                rank: u32::try_from(self.addrs.len()).expect("memory nodes are node ids"),
                memory: 0,
            });
        }
        if let Some(addr) = addr {
            let mark = self.marks.last_mut().expect("every node has a mark");
            mark.memory |= 1 << (n % MARK_EVERY);
            reserve_lean(&mut self.addrs, 1);
            self.addrs.push(addr);
        }
        reserve_lean(&mut self.insts, 1);
        reserve_lean(&mut self.arities, 1);
        self.insts.push(inst);
        self.arities.push(arity);
    }
}

/// The class of `node`'s instruction.
fn class_of(node: &NodeEvent<'_>) -> InstClass {
    let (class, elem) = match (node.op.access, node.op.candidate_elem) {
        (Access::Load(_), _) => (NodeClass::Load, 0),
        (Access::Store(_), _) => (NodeClass::Store, 0),
        (Access::None, Some(elem)) => (NodeClass::Candidate, elem),
        (Access::None, None) => match node.inst.kind {
            InstKind::Cast { to, .. } if to.is_float() => (NodeClass::FloatOther, 0),
            InstKind::Un { ty, .. } | InstKind::Intrin { ty, .. } | InstKind::Bin { ty, .. }
                if ty.is_float() =>
            {
                (NodeClass::FloatOther, 0)
            }
            _ => (NodeClass::Other, 0),
        },
    };
    InstClass {
        class,
        elem,
        nodes: 0,
    }
}

impl Handler<()> for NodeSink {
    fn operand(&mut self, writer: Option<&Writer<()>>) {
        reserve_lean(&mut self.ddg.op_writers, 1);
        self.ddg.op_writers.push(writer.map_or(EXTERNAL, |w| w.seq));
        self.arity += 1;
    }

    fn node(&mut self, node: NodeEvent<'_>) {
        let Ok(arity) = u8::try_from(std::mem::take(&mut self.arity)) else {
            self.error = Some(BuildError::TooManyOperands { inst: node.inst.id });
            return;
        };
        self.ddg.classify(node.inst.id, || class_of(&node));
        let addr = match node.op.access {
            Access::Load(_) | Access::Store(_) => Some(node.addr),
            Access::None => None,
        };
        self.ddg.push_node(node.inst.id, addr, arity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorscope_interp::{CaptureSpec, Vm};

    fn program_ddg(src: &str) -> (Module, Ddg) {
        let module = vectorscope_frontend::compile("t.kern", src).unwrap();
        let mut vm = Vm::new(&module);
        vm.set_capture(CaptureSpec::Program, "all");
        vm.run_main().unwrap();
        let trace = vm.take_trace().unwrap();
        drop(vm); // the VM borrows `module`, which moves below
        let ddg = Ddg::build(&module, &trace);
        (module, ddg)
    }

    #[test]
    fn edges_point_backwards() {
        let (_, ddg) = program_ddg(
            r#"
            const int N = 16;
            double a[N];
            void main() {
                a[0] = 1.0;
                for (int i = 1; i < N; i++) { a[i] = a[i-1] * 2.0; }
            }
        "#,
        );
        for n in 0..ddg.len() as u32 {
            for p in ddg.preds(n) {
                assert!(p < n, "edge {p} -> {n} not backwards");
            }
        }
    }

    #[test]
    fn recurrence_forms_a_chain() {
        // a[i] = a[i-1] * 2: each fmul depends (via a load) on the previous
        // iteration's store, which depends on the previous fmul.
        let (_, ddg) = program_ddg(
            r#"
            const int N = 8;
            double a[N];
            void main() {
                a[0] = 1.0;
                for (int i = 1; i < N; i++) { a[i] = a[i-1] * 2.0; }
            }
        "#,
        );
        let cands: Vec<u32> = ddg.candidate_nodes().collect();
        assert_eq!(cands.len(), 7);
        // Every candidate after the first must reach the previous candidate
        // through load -> store -> fmul.
        for w in cands.windows(2) {
            let (prev, cur) = (w[0], w[1]);
            // BFS backwards from cur, bounded.
            let mut stack = vec![cur];
            let mut reached = false;
            let mut seen = std::collections::HashSet::new();
            while let Some(n) = stack.pop() {
                if n == prev {
                    reached = true;
                    break;
                }
                for p in ddg.preds(n) {
                    if seen.insert(p) {
                        stack.push(p);
                    }
                }
            }
            assert!(reached, "no path from fmul {cur} back to fmul {prev}");
        }
    }

    #[test]
    fn independent_iterations_have_no_cross_paths() {
        let (_, ddg) = program_ddg(
            r#"
            const int N = 8;
            double a[N];
            double b[N];
            void main() {
                for (int i = 0; i < N; i++) { a[i] = 1.0; b[i] = 2.0; }
                for (int i = 0; i < N; i++) { a[i] = a[i] + b[i]; }
            }
        "#,
        );
        let cands: Vec<u32> = ddg.candidate_nodes().collect();
        assert_eq!(cands.len(), 8);
        // No candidate may reach another candidate.
        for &c in &cands {
            let mut stack: Vec<u32> = ddg.preds(c).collect();
            let mut seen = std::collections::HashSet::new();
            while let Some(n) = stack.pop() {
                assert!(
                    !ddg.is_candidate(n),
                    "candidate {c} depends on candidate {n}"
                );
                for p in ddg.preds(n) {
                    if seen.insert(p) {
                        stack.push(p);
                    }
                }
            }
        }
    }

    #[test]
    fn operand_addrs_follow_loads() {
        let (_, ddg) = program_ddg(
            r#"
            const int N = 4;
            double a[N]; double b[N]; double c[N];
            void main() {
                for (int i = 0; i < N; i++) { b[i] = 1.0; c[i] = 2.0; }
                for (int i = 0; i < N; i++) { a[i] = b[i] + c[i]; }
            }
        "#,
        );
        let cands: Vec<u32> = ddg.candidate_nodes().collect();
        assert_eq!(cands.len(), 4);
        let tuples: Vec<Vec<u64>> = cands.iter().map(|&c| ddg.operand_addrs(c)).collect();
        // Consecutive instances differ by exactly 8 bytes in each operand.
        for w in tuples.windows(2) {
            assert_eq!(w[1][0] - w[0][0], 8);
            assert_eq!(w[1][1] - w[0][1], 8);
        }
    }

    #[test]
    fn values_flow_through_calls() {
        let (_, ddg) = program_ddg(
            r#"
            double mul2(double x) { return x * 2.0; }
            double out = 0.0;
            void main() {
                double a = 1.5 + 0.5;     // candidate 1 (fadd)
                out = mul2(a);            // candidate 2 (fmul inside mul2)
            }
        "#,
        );
        let cands: Vec<u32> = ddg.candidate_nodes().collect();
        assert_eq!(cands.len(), 2);
        let (fadd, fmul) = (cands[0], cands[1]);
        // The fmul must depend on the fadd through the parameter (a local
        // register copy may sit between them).
        assert!(
            has_path(&ddg, fadd, fmul),
            "no dependence path from fadd {fadd} to fmul {fmul}"
        );
    }

    /// Whether a backwards path exists from `to` to `from`.
    fn has_path(ddg: &Ddg, from: u32, to: u32) -> bool {
        let mut stack = vec![to];
        let mut seen = std::collections::HashSet::new();
        while let Some(n) = stack.pop() {
            if n == from {
                return true;
            }
            for p in ddg.preds(n) {
                if seen.insert(p) {
                    stack.push(p);
                }
            }
        }
        false
    }

    #[test]
    fn return_values_link_to_caller() {
        let (_, ddg) = program_ddg(
            r#"
            double one() { return 0.5 + 0.5; }
            double out = 0.0;
            void main() { out = one() * 3.0; }
        "#,
        );
        let cands: Vec<u32> = ddg.candidate_nodes().collect();
        assert_eq!(cands.len(), 2);
        let (fadd, fmul) = (cands[0], cands[1]);
        assert!(
            has_path(&ddg, fadd, fmul),
            "return value did not link fadd {fadd} to fmul {fmul}"
        );
    }

    #[test]
    fn flow_only_no_anti_dependences() {
        // x is overwritten after being read; the read must not depend on the
        // later write (anti-dependences are excluded by construction since
        // we track last *writers*).
        let (_, ddg) = program_ddg(
            r#"
            double x = 1.0;
            double y = 0.0;
            void main() {
                y = x + 1.0;   // reads x (initial store from init)
                x = 5.0;       // overwrite afterwards
            }
        "#,
        );
        // The single candidate's memory operand must come from outside the
        // trace or from an earlier store, never from the later one.
        for n in ddg.candidate_nodes() {
            for p in ddg.preds(n) {
                assert!(p < n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "instruction #7")]
    fn synthetic_rejects_two_classes_for_one_instruction() {
        let node = |class, writers| SyntheticNode {
            inst: InstId(7),
            addr: 0,
            class,
            writers,
        };
        Ddg::synthetic(vec![
            node(SyntheticClass::Load, vec![]),
            node(SyntheticClass::Candidate, vec![0]),
        ]);
    }

    /// The forward walk and random access agree on a graph whose operand
    /// counts 0, 1 and 255 sit on both sides of the offset marks.
    #[test]
    fn operand_rows_match_random_access_around_marks() {
        let special = [(63, 255), (64, 0), (65, 1), (127, 255), (128, 0)];
        let rows: Vec<Vec<u32>> = (0..200u32)
            .map(|i| {
                let arity = special
                    .iter()
                    .find(|&&(n, _)| n == i)
                    .map_or(i % 3, |&(_, a)| a);
                (0..arity)
                    .map(|j| if i == 0 { EXTERNAL } else { (i * 7 + j) % i })
                    .collect()
            })
            .collect();
        let ddg = Ddg::synthetic(
            rows.iter()
                .map(|writers| SyntheticNode {
                    inst: InstId(0),
                    addr: 0,
                    class: SyntheticClass::Other,
                    writers: writers.clone(),
                })
                .collect(),
        );
        let walked: Vec<&[u32]> = ddg.operand_rows().collect();
        assert_eq!(walked.len(), rows.len());
        for (n, row) in rows.iter().enumerate() {
            assert_eq!(walked[n], &row[..], "node {n}");
            assert_eq!(ddg.operand_writers(n as u32), &row[..], "node {n}");
        }
    }

    /// Address lookups by memory rank agree with a dense per-node column
    /// on a graph whose loads and stores sit on both sides of the mark
    /// words, with a run of more than 64 nodes holding no memory node.
    #[test]
    fn addresses_match_a_dense_column_around_mark_words() {
        let memory = [0, 63, 64, 65, 127, 128, 300, 301, 383, 384];
        let nodes: Vec<SyntheticNode> = (0..400u32)
            .map(|i| {
                let (inst, class) = match memory.iter().position(|&m| m == i) {
                    Some(k) if k % 3 == 1 => (1, SyntheticClass::Store),
                    Some(_) => (0, SyntheticClass::Load),
                    None if i % 5 == 0 => (2, SyntheticClass::Candidate),
                    None => (3, SyntheticClass::Other),
                };
                let writers = match i {
                    0 => vec![],
                    _ => vec![i - 1, (i * 7) % i, EXTERNAL],
                };
                SyntheticNode {
                    inst: InstId(inst),
                    addr: 0x1000 + u64::from(i) * 24,
                    class,
                    writers,
                }
            })
            .collect();
        let dense: Vec<Option<u64>> = nodes
            .iter()
            .map(|n| match n.class {
                SyntheticClass::Load | SyntheticClass::Store => Some(n.addr),
                _ => None,
            })
            .collect();
        let loaded = |w: u32| match nodes.get(w as usize) {
            Some(n) if n.class == SyntheticClass::Load => n.addr,
            _ => 0,
        };
        let ddg = Ddg::synthetic(nodes.clone());
        assert_eq!(ddg.addrs.len(), memory.len());
        for (n, node) in nodes.iter().enumerate() {
            let n = n as u32;
            assert_eq!(ddg.addr(n), dense[n as usize], "node {n}");
            assert_eq!(ddg.load_addr(n), loaded(n), "node {n}");
            let want: Vec<u64> = node.writers.iter().map(|&w| loaded(w)).collect();
            assert_eq!(ddg.operand_addrs(n), want, "node {n}");
        }
        assert_eq!(ddg.load_addr(EXTERNAL), 0);
    }

    #[test]
    #[should_panic(expected = "synthetic node 1 has 256 writers")]
    fn synthetic_rejects_more_than_255_writers() {
        let node = |writers| SyntheticNode {
            inst: InstId(0),
            addr: 0,
            class: SyntheticClass::Other,
            writers,
        };
        Ddg::synthetic(vec![node(vec![]), node(vec![0; 256])]);
    }

    #[test]
    fn elem_size_tracks_f32() {
        let (module, ddg) = program_ddg(
            r#"
            const int N = 4;
            float a[N];
            void main() {
                for (int i = 0; i < N; i++) { a[i] = a[i] + 1.0; }
            }
        "#,
        );
        let insts = ddg.candidate_insts();
        assert_eq!(insts.len(), 1);
        assert_eq!(ddg.elem_size(insts[0]), 4);
        let _ = module;
    }

    #[test]
    fn candidate_instances_count_each_candidate_instructions_nodes() {
        let (_, ddg) = program_ddg(
            r#"
            const int N = 6;
            double a[N]; double b[N];
            void main() {
                for (int i = 0; i < N; i++) { a[i] = (double)i * 2.0; }
                for (int i = 1; i < N; i++) { b[i] = a[i] + a[i-1] - 1.0; }
            }
        "#,
        );
        assert_eq!(ddg.candidate_insts().len(), 3);
        for i in 0..ddg.classes.len() as u32 + 2 {
            let inst = InstId(i);
            let nodes = ddg.candidate_nodes().filter(|&n| ddg.inst(n) == inst);
            assert_eq!(ddg.candidate_instances(inst), nodes.count(), "#{i}");
        }
        let loads = ddg
            .classes
            .iter()
            .flatten()
            .find(|c| c.class == NodeClass::Load);
        assert!(loads.is_some_and(|c| c.nodes > 0));
    }
}

#[cfg(test)]
mod subtrace_tests {
    use super::*;
    use vectorscope_interp::{CaptureSpec, Vm};

    #[test]
    fn values_from_before_capture_are_external() {
        // The loop reads globals written before capture started: those
        // operand writers must be EXTERNAL, and operand address tuples must
        // still carry the load addresses.
        let src = r#"
            const int N = 8;
            double a[N]; double b[N];
            void main() {
                for (int i = 0; i < N; i++) { b[i] = (double)i; }
                for (int i = 0; i < N; i++) { a[i] = b[i] * 2.0; }
            }
        "#;
        let module = vectorscope_frontend::compile("sub.kern", src).unwrap();
        let main_fn = module.lookup_function("main").unwrap();
        let forest = vectorscope_ir::loops::LoopForest::new(module.function(main_fn));
        // The second loop: larger header line.
        let loop_id = forest
            .iter()
            .map(|(id, _)| id)
            .max_by_key(|&id| forest.span_of(module.function(main_fn), id).line)
            .unwrap();
        let mut vm = Vm::new(&module);
        vm.set_capture(
            CaptureSpec::Loop {
                func: main_fn,
                loop_id,
                instance: 0,
            },
            "second",
        );
        vm.run_main().unwrap();
        let trace = vm.take_trace().unwrap();
        let ddg = Ddg::build(&module, &trace);

        let cands: Vec<u32> = ddg.candidate_nodes().collect();
        assert_eq!(cands.len(), 8);
        for &c in &cands {
            let writers = ddg.operand_writers(c);
            // First operand: the load of b[i] (inside the capture); second:
            // the immediate 2.0 (external).
            assert_eq!(writers.len(), 2);
            assert_ne!(writers[0], EXTERNAL, "load inside capture has a node");
            assert_eq!(writers[1], EXTERNAL, "immediate has no writer");
            // The load itself reads memory written BEFORE capture: its
            // memory operand is external.
            let load = writers[0];
            assert!(ddg.is_load(load));
            let load_writers = ddg.operand_writers(load);
            assert_eq!(load_writers[1], EXTERNAL, "pre-capture store is external");
            // Address tuples still resolve.
            let addrs = ddg.operand_addrs(c);
            assert_ne!(addrs[0], 0);
            assert_eq!(addrs[1], 0);
        }
    }
}

#[cfg(test)]
mod overlap_tests {
    use super::*;
    use vectorscope_interp::{CaptureSpec, Vm};

    fn program_ddg(src: &str) -> (Module, Ddg) {
        let module = vectorscope_frontend::compile("ov.kern", src).unwrap();
        let mut vm = Vm::new(&module);
        vm.set_capture(CaptureSpec::Program, "all");
        vm.run_main().unwrap();
        let trace = vm.take_trace().unwrap();
        drop(vm); // the VM borrows `module`, which moves below
        let ddg = Ddg::build(&module, &trace);
        (module, ddg)
    }

    #[test]
    fn f32_reads_see_overlapping_f64_writes() {
        // A double store covers two float slots; float reads of either half
        // must depend on it (via the pointer reinterpretation).
        let src = r#"
            float f[2];
            float hi = 0.0;
            float lo = 0.0;
            void main() {
                float* p = f;
                double* d = (double*)(int)p;
                *d = 1.0;                   // 8-byte write over f[0..2]
                lo = f[0] + 0.0;            // must depend on the store
                hi = f[1] + 0.0;            // must depend on the store
            }
        "#;
        let (_module, ddg) = program_ddg(src);
        // Every candidate (the two fadds) must see the double store through
        // its loaded operand.
        let cands: Vec<u32> = ddg.candidate_nodes().collect();
        assert_eq!(cands.len(), 2);
        for &c in &cands {
            let load = ddg
                .preds(c)
                .find(|&p| ddg.is_load(p))
                .expect("fadd reads a load");
            let mem_writer = ddg.operand_writers(load)[1];
            assert_ne!(
                mem_writer, EXTERNAL,
                "float load must see the overlapping double store"
            );
        }
    }

    /// Resolves the single candidate's loaded operand to its memory writer,
    /// returning `(load address, writer node)`.
    fn single_load_mem_writer(ddg: &Ddg) -> (u64, u32) {
        let cands: Vec<u32> = ddg.candidate_nodes().collect();
        assert_eq!(cands.len(), 1);
        let load = ddg
            .preds(cands[0])
            .find(|&p| ddg.is_load(p))
            .expect("candidate reads a load");
        let w = ddg.operand_writers(load)[1];
        (ddg.addr(load).unwrap(), w)
    }

    #[test]
    fn newer_overlapping_store_at_different_base_shadows_exact_hit() {
        // Regression: the old exact-base fast path returned the stale
        // 8-byte store at `a` even though a *newer* 4-byte store at `a+4`
        // overlaps the read. The load must depend on the newest
        // overlapping writer, not the newest same-base writer.
        let src = r#"
            double a[2];
            double out = 0.0;
            void main() {
                a[0] = 1.0;             // 8-byte store at base X (older)
                double* p = a;
                float* f = (float*)(int)p;
                f[1] = 2.0;             // 4-byte store at X+4 (newer)
                out = a[0] + 0.0;       // read of [X, X+8) overlaps both
            }
        "#;
        let (_module, ddg) = program_ddg(src);
        let (load_addr, w) = single_load_mem_writer(&ddg);
        assert_ne!(w, EXTERNAL);
        assert_eq!(
            ddg.addr(w),
            Some(load_addr + 4),
            "load must depend on the newer overlapping f[1] store, \
             not the older exact-base a[0] store"
        );
    }

    #[test]
    fn newer_overlapping_store_below_read_base_shadows_exact_hit() {
        // Same bug, other direction: the newest overlapping write sits
        // *below* the read base (an unaligned 8-byte store at X+4
        // overlapping the read of a[1] at X+8).
        let src = r#"
            double a[2];
            double out = 0.0;
            void main() {
                a[1] = 1.0;             // 8-byte store at X+8 (older)
                double* p = a;
                int q = (int)p + 4;
                double* d = (double*)q;
                *d = 2.0;               // 8-byte store at X+4 (newer)
                out = a[1] + 0.0;       // read of [X+8, X+16) overlaps both
            }
        "#;
        let (_module, ddg) = program_ddg(src);
        let (load_addr, w) = single_load_mem_writer(&ddg);
        assert_ne!(w, EXTERNAL);
        assert_eq!(
            ddg.addr(w),
            Some(load_addr - 4),
            "load must depend on the newer unaligned store below its base"
        );
    }

    #[test]
    fn boundary_addresses_near_u64_max_do_not_overflow() {
        // `Ddg::build` consumes event addresses as-is, so hand-craft a
        // trace whose accesses sit at the very top of the address space:
        // the old probe window `lo..addr + size` overflowed there.
        use vectorscope_trace::TraceEvent;
        let src = r#"
            double x = 1.0;
            double y = 0.0;
            void main() { y = x; }
        "#;
        let module = vectorscope_frontend::compile("bd.kern", src).unwrap();
        let mut vm = Vm::new(&module);
        vm.set_capture(CaptureSpec::Program, "all");
        vm.run_main().unwrap();
        let real = vm.take_trace().unwrap();
        let mut load_id = None;
        let mut store_id = None;
        for e in &real {
            if let Some(inst) = module.inst(e.inst) {
                match inst.kind {
                    InstKind::Load { .. } => load_id = load_id.or(Some(e.inst)),
                    InstKind::Store { .. } => store_id = store_id.or(Some(e.inst)),
                    _ => {}
                }
            }
        }
        let (load_id, store_id) = (load_id.unwrap(), store_id.unwrap());
        let base = u64::MAX - 3; // 8-byte access extends past u64::MAX
        let mut t = Trace::new("boundary");
        t.push(TraceEvent::plain(store_id, 0, Some(base)));
        t.push(TraceEvent::plain(load_id, 0, Some(base)));
        t.push(TraceEvent::plain(load_id, 0, Some(u64::MAX)));
        let ddg = Ddg::build(&module, &t);
        assert_eq!(ddg.len(), 3);
        // The same-base load resolves to the store even at the boundary.
        assert_eq!(ddg.operand_writers(1)[1], 0);
        // The load at u64::MAX overlaps the store's (wrapping) extent.
        assert_eq!(ddg.operand_writers(2)[1], 0);
    }

    #[test]
    fn checked_node_id_boundary() {
        assert_eq!(checked_node_id(0), Ok(0));
        assert_eq!(
            checked_node_id(u32::MAX as usize - 1),
            Ok(u32::MAX - 1),
            "the largest non-sentinel id is still valid"
        );
        assert!(
            matches!(
                checked_node_id(u32::MAX as usize),
                Err(BuildError::TraceTooLarge { .. })
            ),
            "id u32::MAX would collide with the EXTERNAL sentinel"
        );
        assert!(checked_node_id(u32::MAX as usize + 1).is_err());
    }
}
