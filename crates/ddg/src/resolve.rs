//! The one dependence resolver, shared by the DDG builder and the streaming
//! engine (the paper's §3 shadow-memory rule).
//!
//! A register use depends on the most recent definition of that register
//! in the same activation; a load depends on the most recent store
//! overlapping any byte it reads. [`Resolver`] finds those writers and
//! hands them to a [`Handler`], whose returned *payload* it records for
//! the instance's destination. The DDG's payload is `()` (a writer's
//! sequence number is its node id); the streaming engine's is the
//! timestamp lanes plus the load address.
//!
//! Every static instruction is decoded once, into an [`OpTable`] indexed by
//! [`InstId`]: resolving an event is then an array index, with no IR lookup
//! or operand walk per event.
//!
//! Resident state is O(live frames + live cells): one dense register frame
//! per activation that has not returned (recycled at its `ret`), and a
//! paged memory shadow: a 4-byte cell index per byte address of each
//! touched 4 KiB page, plus one cell (writer and width) per written base.

use crate::{checked_node_id, BuildError, CandidatePolicy, EXTERNAL};
use std::collections::HashMap;
use vectorscope_ir::{Inst, InstId, InstKind, Module, RegId, TermKind};
use vectorscope_trace::{EventKind, TraceEvent};

/// What an engine records per writer.
pub trait Payload: Clone + Default {
    /// Heap bytes held by this payload alone, for
    /// [`Resolver::resident_bytes`]. An allocation shared among payloads
    /// counts only while exactly one payload holds it: the resolver asks
    /// right after storing a payload and right before dropping one, so a
    /// shared allocation is counted once, by its first and last holder.
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl Payload for () {}

/// How a static instruction touches memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// No memory access.
    None,
    /// A load of this many bytes.
    Load(u64),
    /// A store of this many bytes.
    Store(u64),
}

/// One static instruction, decoded for the resolver.
#[derive(Debug, Clone, Copy)]
pub struct Op<'m> {
    /// The instruction; `None` for terminators and ids the module lacks.
    pub inst: Option<&'m Inst>,
    /// The register it defines.
    pub dst: Option<RegId>,
    /// Its memory access.
    pub access: Access,
    /// Its element size if it is a candidate under the table's policy
    /// ([`CandidatePolicy::candidate_elem_size`]).
    pub candidate_elem: Option<u64>,
    /// For a `ret` terminator, the register it returns.
    pub returns: Option<RegId>,
    /// Its operands: the range of [`OpTable::uses`] entries.
    uses: (u32, u32),
}

impl Op<'_> {
    const UNKNOWN: Op<'static> = Op {
        inst: None,
        dst: None,
        access: Access::None,
        candidate_elem: None,
        returns: None,
        uses: (0, 0),
    };
}

/// The per-module op table: every static instruction decoded once.
#[derive(Debug, Clone)]
pub struct OpTable<'m> {
    ops: Vec<Op<'m>>,
    /// Operands of every op, concatenated in operand order: the register
    /// read, or `None` for an immediate.
    uses: Vec<Option<RegId>>,
}

impl<'m> OpTable<'m> {
    /// Decodes every instruction and terminator of `module`, with
    /// candidates chosen by `policy`.
    pub fn new(module: &'m Module, policy: CandidatePolicy) -> Self {
        let mut table = OpTable {
            ops: vec![Op::UNKNOWN; module.num_inst_ids()],
            uses: Vec::new(),
        };
        for block in module.functions().iter().flat_map(|f| f.blocks()) {
            for inst in &block.insts {
                let start = table.uses.len() as u32;
                inst.for_each_use(|v| table.uses.push(v.as_reg()));
                let access = match inst.kind {
                    InstKind::Load { ty, .. } => Access::Load(ty.size()),
                    InstKind::Store { ty, .. } => Access::Store(ty.size()),
                    _ => Access::None,
                };
                let op = Op {
                    inst: Some(inst),
                    dst: inst.dst(),
                    access,
                    candidate_elem: policy.candidate_elem_size(inst),
                    returns: None,
                    uses: (start, table.uses.len() as u32),
                };
                table.set(inst.id, op);
            }
            if let Some(term) = &block.term {
                let returns = match term.kind {
                    TermKind::Ret(Some(v)) => v.as_reg(),
                    _ => None,
                };
                table.set(
                    term.id,
                    Op {
                        returns,
                        ..Op::UNKNOWN
                    },
                );
            }
        }
        table
    }

    fn set(&mut self, id: InstId, op: Op<'m>) {
        if id.index() >= self.ops.len() {
            self.ops.resize(id.index() + 1, Op::UNKNOWN);
        }
        self.ops[id.index()] = op;
    }

    /// The decoded instruction `id` (an op with no `inst` if `id` names a
    /// terminator or is unknown).
    pub fn get(&self, id: InstId) -> &Op<'m> {
        self.ops.get(id.index()).unwrap_or(&Op::UNKNOWN)
    }

    /// The operands of `op` in operand order: the register each reads, or
    /// `None` for an immediate.
    pub fn uses(&self, op: &Op<'_>) -> &[Option<RegId>] {
        &self.uses[op.uses.0 as usize..op.uses.1 as usize]
    }
}

/// The most recent writer of a register or memory cell.
#[derive(Debug, Clone)]
pub struct Writer<P> {
    /// The writer's sequence number: its DDG node id ([`EXTERNAL`] marks
    /// an empty register slot).
    pub seq: u32,
    /// What the engine recorded for it.
    pub payload: P,
}

impl<P: Default> Writer<P> {
    fn empty() -> Self {
        Writer {
            seq: EXTERNAL,
            payload: P::default(),
        }
    }
}

/// One node-producing dynamic instance, announced to [`Handler::node`]
/// after its operand writers.
#[derive(Debug, Clone, Copy)]
pub struct NodeEvent<'m> {
    /// Sequence number (node id), increasing in execution order.
    pub seq: u32,
    /// The static instruction.
    pub inst: &'m Inst,
    /// Its decoded form.
    pub op: Op<'m>,
    /// The accessed address for loads and stores, 0 otherwise.
    pub addr: u64,
}

/// The engine side of the resolver: turns resolved operands into payloads.
pub trait Handler<P> {
    /// One operand writer of the pending instance, in operand order: the
    /// register uses, then for a load its memory writer. `None` means no
    /// producer inside the trace (an immediate, or a value produced before
    /// capture started).
    fn operand(&mut self, writer: Option<&Writer<P>>);

    /// The pending instance, after its operands. The returned payload is
    /// recorded for its destination register or stored cell, if any.
    fn node(&mut self, node: NodeEvent<'_>) -> P;
}

/// A call whose callee has not returned yet.
struct OpenCall {
    callee: u32,
    caller: u32,
    dst: Option<RegId>,
}

/// Base-2 log of the shadow page size: 4096 byte addresses per page.
const PAGE_BITS: u32 = 12;
/// Byte addresses (slots) per shadow page.
const PAGE_SLOTS: usize = 1 << PAGE_BITS;

/// The last store at one base address: its writer and width in bytes.
struct Cell<P> {
    writer: Writer<P>,
    size: u8,
}

fn slot_of(addr: u64) -> usize {
    (addr & (PAGE_SLOTS as u64 - 1)) as usize
}

/// Last-writer resolution over a trace, generic over the engine payload.
///
/// Feed every event of a capture region to [`step`](Self::step) in order.
pub struct Resolver<'m, P> {
    module: &'m Module,
    ops: OpTable<'m>,

    /// Register frames, indexed by frame handle; a returned activation's
    /// frame is cleared and reused by the next one.
    frames: Vec<Vec<Writer<P>>>,
    /// Handles of cleared frames.
    free_frames: Vec<u32>,
    /// Activation id → frame handle, for activations that have not
    /// returned.
    frame_of: HashMap<u32, u32>,
    /// The last activation looked up and its frame (most events hit it).
    current: Option<(u32, u32)>,
    calls: Vec<OpenCall>,

    /// Shadow pages, found through `page_of` by `addr >> PAGE_BITS` and
    /// indexed by `slot_of(addr)`: the index of the base's cell, or
    /// [`EXTERNAL`] if nothing was stored there.
    pages: Vec<Box<[u32]>>,
    page_of: HashMap<u64, u32>,
    /// The page number and page last found through `page_of` (most
    /// accesses fall in the page of the one before).
    last_page: (u64, u32),
    cells: Vec<Cell<P>>,

    /// Instances resolved so far (the next sequence number).
    nodes: usize,
    /// Operand writers handed out so far (the batch CSR length).
    operands: u64,

    /// Register slots held by frames of live activations.
    live_reg_slots: usize,
    /// Register slots allocated across all frames, live or recycled.
    frame_capacity: usize,
    /// Heap bytes held by stored payloads.
    payload_heap: usize,
}

impl<'m, P: Payload> Resolver<'m, P> {
    /// A resolver with no writers, for one capture region of `module`, whose
    /// nodes are candidates as `policy` decides.
    pub fn new(module: &'m Module, policy: CandidatePolicy) -> Self {
        Resolver {
            module,
            ops: OpTable::new(module, policy),
            frames: Vec::new(),
            free_frames: Vec::new(),
            frame_of: HashMap::new(),
            current: None,
            calls: Vec::new(),
            pages: Vec::new(),
            page_of: HashMap::new(),
            last_page: (u64::MAX, 0),
            cells: Vec::new(),
            nodes: 0,
            operands: 0,
            live_reg_slots: 0,
            frame_capacity: 0,
            payload_heap: 0,
        }
    }

    /// Node-producing instances resolved so far.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Register slots held by the frames of activations that have not
    /// returned.
    pub fn live_reg_slots(&self) -> usize {
        self.live_reg_slots
    }

    /// Distinct memory base addresses written so far.
    pub fn mem_cells(&self) -> usize {
        self.cells.len()
    }

    /// Resident bytes of the resolver's state at its allocated size:
    /// register frames (recycled ones included), shadow pages, cell
    /// payloads, payload heap, the op table and the open-call stack.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let frames = self.frame_capacity * size_of::<Writer<P>>()
            + self.frames.capacity() * size_of::<Vec<Writer<P>>>()
            + (self.frame_of.capacity() + self.free_frames.capacity()) * 2 * 4
            + self.calls.capacity() * size_of::<OpenCall>();
        let memory = self.pages.len() * PAGE_SLOTS * 4
            + self.pages.capacity() * size_of::<Box<[u32]>>()
            + self.page_of.capacity() * (8 + 4)
            + self.cells.capacity() * size_of::<Cell<P>>();
        let ops = self.ops.ops.capacity() * size_of::<Op<'_>>()
            + self.ops.uses.capacity() * size_of::<Option<RegId>>();
        frames + memory + ops + self.payload_heap
    }

    /// Resolves one event, calling `handler` for it if it is a node.
    ///
    /// Call and return events create no node: dependences flow through
    /// them. A callee's parameters take the caller-side writers of the
    /// arguments, and the call's destination register takes the writer of
    /// the returned value. Events of instructions unknown to the module
    /// are ignored.
    ///
    /// # Errors
    ///
    /// [`BuildError::MissingAddress`] for a load or store event without an
    /// address; [`BuildError::TraceTooLarge`] once node ids or the operand
    /// count would overflow `u32`.
    pub fn step(
        &mut self,
        event: &TraceEvent,
        handler: &mut impl Handler<P>,
    ) -> Result<(), BuildError> {
        match event.kind {
            EventKind::Plain { addr } => return self.plain(event, addr, handler),
            EventKind::Call { callee_activation } => {
                self.call(event.inst, event.activation, callee_activation)
            }
            EventKind::Ret => self.ret(event.inst, event.activation),
        }
        Ok(())
    }

    fn plain(
        &mut self,
        event: &TraceEvent,
        addr: Option<u64>,
        handler: &mut impl Handler<P>,
    ) -> Result<(), BuildError> {
        let op = *self.ops.get(event.inst);
        let Some(inst) = op.inst else {
            return Ok(()); // terminator or unknown: returns arrive as Ret
        };
        let addr = match (op.access, addr) {
            (Access::None, _) => 0,
            (_, Some(a)) => a,
            (_, None) => return Err(BuildError::MissingAddress { inst: event.inst }),
        };
        let seq = checked_node_id(self.nodes)?;
        let frame = self.frame(event.activation);
        let uses = self.ops.uses(&op);
        for &r in uses {
            handler.operand(r.and_then(|r| self.read(frame, r)));
        }
        let mut operands = uses.len() as u64;
        if let Access::Load(size) = op.access {
            operands += 1;
            handler.operand(self.latest_overlapping_store(addr, size));
        }
        self.operands += operands;
        if self.operands >= u64::from(u32::MAX) {
            return Err(BuildError::TraceTooLarge {
                nodes: self.nodes + 1,
            });
        }
        self.nodes += 1;
        let payload = handler.node(NodeEvent {
            seq,
            inst,
            op,
            addr,
        });
        if let Access::Store(size) = op.access {
            self.store(addr, size, seq, payload);
        } else if let Some(dst) = op.dst {
            self.write(frame, dst, Writer { seq, payload });
        }
        Ok(())
    }

    fn call(&mut self, id: InstId, act: u32, callee_act: u32) {
        let module = self.module;
        let Some(InstKind::Call { dst, callee, args }) = self.ops.get(id).inst.map(|i| &i.kind)
        else {
            return;
        };
        let caller = self.frame(act);
        let callee_frame = self.frame(callee_act);
        for (&arg, &param) in args.iter().zip(module.function(*callee).params()) {
            if let Some(w) = arg.as_reg().and_then(|r| self.read(caller, r)).cloned() {
                self.write(callee_frame, param, w);
            }
        }
        self.calls.push(OpenCall {
            callee: callee_act,
            caller: act,
            dst: *dst,
        });
    }

    fn ret(&mut self, id: InstId, act: u32) {
        // A return only links to the innermost open call, and only if that
        // call entered this activation: when capture started mid-call there
        // is nothing (or the wrong call) to link, so the stack stays as is.
        if let Some(call) = self.calls.pop_if(|c| c.callee == act) {
            if let Some(dst) = call.dst {
                let returned = self.ops.get(id).returns.and_then(|r| {
                    let callee = self.frame(act);
                    self.read(callee, r).cloned()
                });
                let caller = self.frame(call.caller);
                self.write(caller, dst, returned.unwrap_or_else(Writer::empty));
            }
        }
        self.release(act);
    }

    /// The frame handle of activation `act`, creating its frame on first
    /// use.
    fn frame(&mut self, act: u32) -> u32 {
        if let Some((a, f)) = self.current {
            if a == act {
                return f;
            }
        }
        let f = match self.frame_of.get(&act) {
            Some(&f) => f,
            None => {
                let f = self.free_frames.pop().unwrap_or_else(|| {
                    self.frames.push(Vec::new());
                    u32::try_from(self.frames.len() - 1).expect("live activations fit u32")
                });
                self.frame_of.insert(act, f);
                f
            }
        };
        self.current = Some((act, f));
        f
    }

    /// Clears the frame of a returned activation for reuse.
    fn release(&mut self, act: u32) {
        let Some(f) = self.frame_of.remove(&act) else {
            return;
        };
        if self.current.is_some_and(|(a, _)| a == act) {
            self.current = None;
        }
        let frame = &mut self.frames[f as usize];
        self.live_reg_slots -= frame.len();
        // One at a time: payloads of one frame may share an allocation.
        for slot in frame.drain(..) {
            self.payload_heap -= slot.payload.heap_bytes();
        }
        self.free_frames.push(f);
    }

    fn read(&self, frame: u32, r: RegId) -> Option<&Writer<P>> {
        let w = self.frames[frame as usize].get(r.index())?;
        (w.seq != EXTERNAL).then_some(w)
    }

    fn write(&mut self, frame: u32, r: RegId, w: Writer<P>) {
        let regs = &mut self.frames[frame as usize];
        if r.index() >= regs.len() {
            let (len, cap) = (regs.len(), regs.capacity());
            regs.resize_with(r.index() + 1, Writer::empty);
            self.live_reg_slots += regs.len() - len;
            self.frame_capacity += regs.capacity() - cap;
        }
        let old = std::mem::replace(&mut regs[r.index()], w);
        self.payload_heap += regs[r.index()].payload.heap_bytes();
        self.payload_heap -= old.payload.heap_bytes();
    }

    /// The most recent store overlapping the read `[addr, addr + size)`.
    ///
    /// Scans every base an overlapping store could be recorded under: the
    /// 7 bytes below `addr` (accesses are at most 8 bytes) and every byte
    /// of the read. All hits compete on recency (sequence numbers increase
    /// in execution order); an exact-base hit gets no shortcut, since a
    /// newer store at a different base can overlap the read and must win
    /// (mixed-size aliased stores). The window saturates at the ends of the
    /// `u64` space; a store whose extent wraps past `u64::MAX` counts as
    /// overlapping.
    fn latest_overlapping_store(&mut self, addr: u64, size: u64) -> Option<&Writer<P>> {
        if size == 0 {
            return None;
        }
        let lo = addr.saturating_sub(7);
        let hi = addr.saturating_add(size - 1);
        // The window spans at most two pages: scan it page by page.
        let pages = [self.page(lo >> PAGE_BITS), self.page(hi >> PAGE_BITS)];
        let mut best: Option<&Cell<P>> = None;
        let mut base = lo;
        loop {
            let last = hi.min(base | (PAGE_SLOTS as u64 - 1));
            let first_page = base >> PAGE_BITS == lo >> PAGE_BITS;
            if let Some(p) = pages[usize::from(!first_page)] {
                let page = &self.pages[p as usize];
                for b in base..=last {
                    // `EXTERNAL` (never stored) indexes past the last cell.
                    let Some(cell) = self.cells.get(page[slot_of(b)] as usize) else {
                        continue;
                    };
                    let width = u64::from(cell.size);
                    let reaches =
                        width > 0 && b.checked_add(width - 1).is_none_or(|end| end >= addr);
                    if reaches && best.is_none_or(|top| cell.writer.seq > top.writer.seq) {
                        best = Some(cell);
                    }
                }
            }
            if last == hi {
                break;
            }
            base = last + 1;
        }
        best.map(|c| &c.writer)
    }

    /// The shadow page of page number `number`, if any.
    fn page(&mut self, number: u64) -> Option<u32> {
        if self.last_page.0 != number {
            self.last_page = (number, *self.page_of.get(&number)?);
        }
        Some(self.last_page.1)
    }

    fn store(&mut self, addr: u64, size: u64, seq: u32, payload: P) {
        let p = match self.page(addr >> PAGE_BITS) {
            Some(p) => p,
            None => {
                let p = u32::try_from(self.pages.len()).expect("shadow pages fit u32");
                self.pages
                    .push(vec![EXTERNAL; PAGE_SLOTS].into_boxed_slice());
                self.page_of.insert(addr >> PAGE_BITS, p);
                p
            }
        };
        let cell = Cell {
            writer: Writer { seq, payload },
            size: u8::try_from(size).expect("scalar accesses are at most 8 bytes"),
        };
        self.payload_heap += cell.writer.payload.heap_bytes();
        let handle = &mut self.pages[p as usize][slot_of(addr)];
        if *handle == EXTERNAL {
            *handle = u32::try_from(self.cells.len()).expect("cells are bounded by node ids");
            self.cells.push(cell);
        } else {
            let old = std::mem::replace(&mut self.cells[*handle as usize], cell);
            self.payload_heap -= old.writer.payload.heap_bytes();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// For every static instruction of every bundled kernel, the op table
    /// says what the IR says.
    #[test]
    fn op_table_agrees_with_the_ir() {
        let mut immediates = 0;
        for kernel in vectorscope_kernels::all_kernels() {
            let name = kernel.file_name();
            let module = vectorscope_frontend::compile(&name, &kernel.source).unwrap();
            for policy in [
                CandidatePolicy::FloatArith,
                CandidatePolicy::IntAndFloatArith,
            ] {
                let table = OpTable::new(&module, policy);
                for id in (0..module.num_inst_ids() as u32 + 2).map(InstId) {
                    let op = table.get(id);
                    let Some(inst) = module.inst(id) else {
                        let returns = match module.terminator(id).map(|t| &t.kind) {
                            Some(TermKind::Ret(Some(v))) => v.as_reg(),
                            _ => None,
                        };
                        assert!(op.inst.is_none(), "{name} #{}", id.0);
                        assert_eq!(op.returns, returns, "{name} #{}", id.0);
                        assert!(table.uses(op).is_empty(), "{name} #{}", id.0);
                        continue;
                    };
                    assert!(
                        op.inst.is_some_and(|i| std::ptr::eq(i, inst)),
                        "{name} #{}",
                        id.0
                    );
                    let mut uses = Vec::new();
                    inst.for_each_use(|v| uses.push(v.as_reg()));
                    immediates += uses.iter().filter(|u| u.is_none()).count();
                    assert_eq!(table.uses(op), uses, "{name} #{}", id.0);
                    assert_eq!(op.dst, inst.dst(), "{name} #{}", id.0);
                    let access = match inst.kind {
                        InstKind::Load { ty, .. } => Access::Load(ty.size()),
                        InstKind::Store { ty, .. } => Access::Store(ty.size()),
                        _ => Access::None,
                    };
                    assert_eq!(op.access, access, "{name} #{}", id.0);
                    assert_eq!(
                        op.candidate_elem,
                        policy.candidate_elem_size(inst),
                        "{name} #{}",
                        id.0
                    );
                    assert_eq!(op.returns, None, "{name} #{}", id.0);
                }
            }
        }
        assert!(immediates > 0, "the kernels exercise immediate operands");
    }

    /// A payload sharing one allocation among writers, as the streaming
    /// engine's timestamp rows do.
    #[derive(Clone, Default)]
    struct Shared(Option<std::sync::Arc<[u32]>>);

    impl Payload for Shared {
        fn heap_bytes(&self) -> usize {
            match &self.0 {
                Some(a) if std::sync::Arc::strong_count(a) == 1 => 16 + 4 * a.len(),
                _ => 0,
            }
        }
    }

    /// Forwards the first operand's allocation; every third node makes a
    /// new one.
    #[derive(Default)]
    struct Forwarder(Option<std::sync::Arc<[u32]>>);

    impl Handler<Shared> for Forwarder {
        fn operand(&mut self, writer: Option<&Writer<Shared>>) {
            if self.0.is_none() {
                self.0 = writer.and_then(|w| w.payload.0.clone());
            }
        }

        fn node(&mut self, node: NodeEvent<'_>) -> Shared {
            let forwarded = self.0.take();
            if node.seq.is_multiple_of(3) {
                let lanes = vec![node.seq; node.seq as usize % 4 + 1];
                Shared(Some(lanes.into()))
            } else {
                Shared(forwarded)
            }
        }
    }

    /// The payload heap counts every live shared allocation exactly once,
    /// through calls, returns, frame recycling and overwritten cells.
    #[test]
    fn shared_payload_heap_is_counted_once() {
        use vectorscope_interp::{CaptureSpec, Vm};
        for kernel in vectorscope_kernels::all_kernels().iter().take(8) {
            let module = vectorscope_frontend::compile("k.kern", &kernel.source).unwrap();
            let mut vm = Vm::new(&module);
            vm.set_capture(CaptureSpec::Program, "all");
            vm.run_main().unwrap();
            let trace = vm.take_trace().unwrap();
            let mut resolver = Resolver::<Shared>::new(&module, CandidatePolicy::FloatArith);
            let mut handler = Forwarder::default();
            for (i, event) in trace.events().iter().enumerate() {
                resolver.step(event, &mut handler).unwrap();
                if !i.is_multiple_of(997) && i + 1 != trace.len() {
                    continue;
                }
                let mut live = std::collections::HashMap::new();
                let frames = resolver.frames.iter().flatten().map(|w| &w.payload);
                let cells = resolver.cells.iter().map(|c| &c.writer.payload);
                for a in frames.chain(cells).filter_map(|p| p.0.as_ref()) {
                    live.insert(std::sync::Arc::as_ptr(a), 16 + 4 * a.len());
                }
                let want: usize = live.values().sum();
                assert_eq!(resolver.payload_heap, want, "{} event {i}", kernel.name);
            }
        }
    }
}
