//! One-time lowering of verified IR into a flat pre-decoded bytecode.
//!
//! Interpreting structured IR directly would re-resolve everything on every
//! executed instruction: index the block list, pattern-match a large
//! [`InstKind`] with heap-allocated operand vectors, map the current block
//! to its innermost loop, and charge the profiler through a hash map. The
//! decode pass performs all of that resolution once per *static*
//! instruction instead:
//!
//! * every operand becomes a fixed-size [`Opnd`] (register slot index or
//!   inlined immediate),
//! * every op carries its pre-computed cycle cost and a dense module-wide
//!   loop index (so profiling is a flat array add at run time),
//! * block targets become flat program counters into the function's code
//!   array, each annotated with the list of loops that edge enters
//!   (replacing the run-time loop-forest ancestor walk),
//! * the dominant instruction pairs are fused into superinstructions:
//!   compare+branch ([`Action::CmpBr`]), base+scaled-index addressing
//!   ([`Action::Gep1`]), and load feeding a binary op ([`Action::LoadBin`]).
//!
//! Fusion collapses *dispatch*, never bookkeeping: a fused op still carries
//! both constituent instruction ids, charges fuel and cycle costs per
//! constituent, and emits one trace event per constituent, in program
//! order — exactly what executing the two instructions one by one would
//! emit. `tests/golden/vm_trace_digests.txt` pins the resulting traces,
//! fuel and counters for every bundled kernel.

use crate::cost::CostModel;
use crate::profiler::LoopKey;
use vectorscope_ir::loops::LoopForest;
use vectorscope_ir::{
    BinOp, BlockId, CmpOp, FuncId, GlobalId, InstId, InstKind, Intrinsic, Module, RegId, ScalarTy,
    TermKind, UnOp, Value,
};

/// Sentinel for "this op executes outside any loop".
pub(crate) const NO_LOOP: u32 = u32::MAX;

/// A pre-resolved operand: a register slot or an inlined immediate.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Opnd {
    /// Register slot index (`RegId::index()`).
    Reg(u32),
    /// Integer/pointer immediate.
    Int(i64),
    /// Float immediate.
    Float(f64),
}

impl Opnd {
    fn of(v: Value) -> Opnd {
        match v {
            Value::Reg(r) => Opnd::Reg(r.index() as u32),
            Value::ImmInt(i) => Opnd::Int(i),
            Value::ImmFloat(f) => Opnd::Float(f),
        }
    }
}

/// A control-flow edge in decoded form: flat target pc, target block (kept
/// for loop-capture boundary checks), and the slice of the function's
/// entered-loop pool naming every loop this edge enters (dense indices,
/// innermost first).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    /// Target program counter within the function's code array.
    pub pc: u32,
    /// Target block.
    pub block: BlockId,
    /// Offset into [`DecodedFunc::entered_pool`].
    pub entered_off: u32,
    /// Number of pool entries for this edge.
    pub entered_len: u32,
}

/// The work a [`DecodedOp`] performs, with operands pre-resolved.
#[derive(Debug, Clone)]
pub(crate) enum Action {
    /// `dst = lhs <op> rhs`.
    Bin {
        op: BinOp,
        ty: ScalarTy,
        dst: u32,
        lhs: Opnd,
        rhs: Opnd,
    },
    /// `dst = <op> src`.
    Un {
        op: UnOp,
        ty: ScalarTy,
        dst: u32,
        src: Opnd,
    },
    /// `dst = (lhs <op> rhs) ? 1 : 0`.
    Cmp {
        op: CmpOp,
        ty: ScalarTy,
        dst: u32,
        lhs: Opnd,
        rhs: Opnd,
    },
    /// Scalar conversion.
    Cast {
        dst: u32,
        to: ScalarTy,
        from: ScalarTy,
        src: Opnd,
    },
    /// `dst = *(ty*)addr`.
    Load { dst: u32, ty: ScalarTy, addr: Opnd },
    /// `*(ty*)addr = value`.
    Store {
        ty: ScalarTy,
        addr: Opnd,
        value: Opnd,
    },
    /// Superinstruction: base + scaled-index addressing, the decoded form
    /// of every `Gep` with at most one index pair (zero-index Geps use
    /// `idx = Opnd::Int(0), scale = 0`).
    Gep1 {
        dst: u32,
        base: Opnd,
        idx: Opnd,
        scale: i64,
        offset: i64,
    },
    /// General multi-index `Gep` (rare; kept out of the fused fast path).
    GepN {
        dst: u32,
        base: Opnd,
        pairs: Box<[(Opnd, i64)]>,
        offset: i64,
    },
    /// Direct call.
    Call {
        dst: Option<RegId>,
        callee: FuncId,
        args: Box<[Opnd]>,
    },
    /// Built-in math function (arity ≤ 2, operands inline — no per-call
    /// argument vector).
    Intrin {
        dst: u32,
        which: Intrinsic,
        ty: ScalarTy,
        args: [Opnd; 2],
        arity: u8,
    },
    /// `dst = frame_base + offset`.
    FrameAddr { dst: u32, offset: u64 },
    /// `dst =` base address of a module global.
    GlobalAddr { dst: u32, global: GlobalId },
    /// Superinstruction: load whose value feeds the immediately following
    /// binary op. Carries the second constituent's bookkeeping
    /// (`bin_inst`, `bin_cost`) so fuel, counts, cycles, and trace events
    /// stay per-constituent.
    LoadBin {
        load_dst: u32,
        load_ty: ScalarTy,
        addr: Opnd,
        bin_inst: InstId,
        bin_cost: u32,
        op: BinOp,
        ty: ScalarTy,
        dst: u32,
        lhs: Opnd,
        rhs: Opnd,
    },
    /// Superinstruction: compare whose result is the condition of the
    /// block's conditional branch. The compare result is still written to
    /// its register and both constituents keep their own bookkeeping.
    CmpBr {
        op: CmpOp,
        ty: ScalarTy,
        dst: u32,
        lhs: Opnd,
        rhs: Opnd,
        br_inst: InstId,
        br_cost: u32,
        then_edge: Edge,
        else_edge: Edge,
    },
    /// Unconditional branch.
    Br { edge: Edge },
    /// Conditional branch (condition not produced by the preceding
    /// instruction, so no fusion).
    CondBr {
        cond: Opnd,
        then_edge: Edge,
        else_edge: Edge,
    },
    /// Function return.
    Ret { value: Option<Opnd> },
}

/// One fixed-size decoded operation.
#[derive(Debug, Clone)]
pub(crate) struct DecodedOp {
    /// Static id of the (first) constituent instruction, for execution
    /// counts, trace events, and trap spans.
    pub inst: InstId,
    /// Pre-computed cycle cost of the (first) constituent.
    pub cost: u32,
    /// Dense module-wide index of the innermost enclosing loop, or
    /// [`NO_LOOP`].
    pub loop_idx: u32,
    /// What to do.
    pub action: Action,
}

/// One function lowered to flat bytecode.
#[derive(Debug)]
pub(crate) struct DecodedFunc {
    /// Ops of all blocks, laid out in block order; each block's
    /// instructions are followed by its terminator op (or by a fused
    /// compare+branch covering both).
    pub code: Vec<DecodedOp>,
    /// First pc of each block (index = `BlockId::index()`).
    pub block_pc: Vec<u32>,
    /// Backing pool for [`Edge`] entered-loop slices (dense loop indices).
    pub entered_pool: Vec<u32>,
}

/// A whole module lowered to flat bytecode, plus the dense loop table the
/// flat profiling counters are flushed through.
#[derive(Debug)]
pub(crate) struct DecodedModule {
    /// Decoded functions (index = `FuncId::index()`).
    pub funcs: Vec<DecodedFunc>,
    /// Dense loop table: every loop of every function, function-major.
    pub loop_keys: Vec<LoopKey>,
}

impl DecodedModule {
    /// Lowers every function of `module` once, using `cost` to pre-compute
    /// per-op cycle costs.
    pub fn build(module: &Module, forests: &[LoopForest], cost: &CostModel) -> DecodedModule {
        let mut loop_keys = Vec::new();
        let mut loop_base = Vec::with_capacity(forests.len());
        for (fi, forest) in forests.iter().enumerate() {
            loop_base.push(loop_keys.len() as u32);
            for (loop_id, _) in forest.iter() {
                loop_keys.push(LoopKey {
                    func: FuncId(fi as u32),
                    loop_id,
                });
            }
        }

        let funcs = module
            .functions()
            .iter()
            .enumerate()
            .map(|(fi, function)| decode_function(function, &forests[fi], loop_base[fi], cost))
            .collect();

        DecodedModule { funcs, loop_keys }
    }
}

fn decode_function(
    function: &vectorscope_ir::Function,
    forest: &LoopForest,
    loop_base: u32,
    cost: &CostModel,
) -> DecodedFunc {
    let mut code: Vec<DecodedOp> = Vec::new();
    let mut block_pc = vec![0u32; function.blocks().len()];
    let mut entered_pool: Vec<u32> = Vec::new();

    for (bi, block) in function.blocks().iter().enumerate() {
        let bid = BlockId(bi as u32);
        block_pc[bi] = code.len() as u32;
        let loop_idx = forest
            .innermost_of(bid)
            .map_or(NO_LOOP, |l| loop_base + l.index() as u32);
        let term = block.terminator();

        // A compare feeding the block's conditional branch fuses into one
        // CmpBr op; the compare is then excluded from the plain run below.
        let fuse_term = match (block.insts.last(), &term.kind) {
            (
                Some(last),
                TermKind::CondBr {
                    cond: Value::Reg(r),
                    ..
                },
            ) => matches!(&last.kind, InstKind::Cmp { dst, .. } if dst == r),
            _ => false,
        };
        let plain_len = block.insts.len() - usize::from(fuse_term);

        let mut i = 0;
        while i < plain_len {
            let inst = &block.insts[i];
            // Load whose value feeds the next instruction's binary op.
            if i + 1 < plain_len {
                if let (
                    InstKind::Load {
                        dst: load_dst,
                        ty: load_ty,
                        addr,
                    },
                    InstKind::Bin {
                        op,
                        ty,
                        dst,
                        lhs,
                        rhs,
                    },
                ) = (&inst.kind, &block.insts[i + 1].kind)
                {
                    let reads_load = matches!(lhs, Value::Reg(r) if r == load_dst)
                        || matches!(rhs, Value::Reg(r) if r == load_dst);
                    if reads_load {
                        let bin = &block.insts[i + 1];
                        code.push(DecodedOp {
                            inst: inst.id,
                            cost: cost.inst_cost(&inst.kind) as u32,
                            loop_idx,
                            action: Action::LoadBin {
                                load_dst: load_dst.index() as u32,
                                load_ty: *load_ty,
                                addr: Opnd::of(*addr),
                                bin_inst: bin.id,
                                bin_cost: cost.inst_cost(&bin.kind) as u32,
                                op: *op,
                                ty: *ty,
                                dst: dst.index() as u32,
                                lhs: Opnd::of(*lhs),
                                rhs: Opnd::of(*rhs),
                            },
                        });
                        i += 2;
                        continue;
                    }
                }
            }
            code.push(DecodedOp {
                inst: inst.id,
                cost: cost.inst_cost(&inst.kind) as u32,
                loop_idx,
                action: decode_plain(&inst.kind),
            });
            i += 1;
        }

        let mut mk_edge = |target: BlockId| -> Edge {
            let entered = forest.entered_on_edge(bid, target);
            let entered_off = entered_pool.len() as u32;
            entered_pool.extend(entered.iter().map(|l| loop_base + l.index() as u32));
            Edge {
                pc: 0, // patched below once every block's pc is known
                block: target,
                entered_off,
                entered_len: entered.len() as u32,
            }
        };

        if fuse_term {
            let cmp = block.insts.last().expect("fused compare exists");
            let InstKind::Cmp {
                op,
                ty,
                dst,
                lhs,
                rhs,
            } = &cmp.kind
            else {
                unreachable!("fuse_term checked the kind")
            };
            let TermKind::CondBr {
                then_bb, else_bb, ..
            } = term.kind
            else {
                unreachable!("fuse_term checked the kind")
            };
            let (then_edge, else_edge) = (mk_edge(then_bb), mk_edge(else_bb));
            code.push(DecodedOp {
                inst: cmp.id,
                cost: cost.inst_cost(&cmp.kind) as u32,
                loop_idx,
                action: Action::CmpBr {
                    op: *op,
                    ty: *ty,
                    dst: dst.index() as u32,
                    lhs: Opnd::of(*lhs),
                    rhs: Opnd::of(*rhs),
                    br_inst: term.id,
                    br_cost: cost.term_cost(&term.kind) as u32,
                    then_edge,
                    else_edge,
                },
            });
        } else {
            let action = match term.kind {
                TermKind::Br(target) => Action::Br {
                    edge: mk_edge(target),
                },
                TermKind::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => Action::CondBr {
                    cond: Opnd::of(cond),
                    then_edge: mk_edge(then_bb),
                    else_edge: mk_edge(else_bb),
                },
                TermKind::Ret(value) => Action::Ret {
                    value: value.map(Opnd::of),
                },
            };
            code.push(DecodedOp {
                inst: term.id,
                cost: cost.term_cost(&term.kind) as u32,
                loop_idx,
                action,
            });
        }
    }

    // Second pass: resolve block targets to flat pcs.
    for op in &mut code {
        match &mut op.action {
            Action::Br { edge } => edge.pc = block_pc[edge.block.index()],
            Action::CondBr {
                then_edge,
                else_edge,
                ..
            }
            | Action::CmpBr {
                then_edge,
                else_edge,
                ..
            } => {
                then_edge.pc = block_pc[then_edge.block.index()];
                else_edge.pc = block_pc[else_edge.block.index()];
            }
            _ => {}
        }
    }

    DecodedFunc {
        code,
        block_pc,
        entered_pool,
    }
}

fn decode_plain(kind: &InstKind) -> Action {
    match kind {
        InstKind::Bin {
            op,
            ty,
            dst,
            lhs,
            rhs,
        } => Action::Bin {
            op: *op,
            ty: *ty,
            dst: dst.index() as u32,
            lhs: Opnd::of(*lhs),
            rhs: Opnd::of(*rhs),
        },
        InstKind::Un { op, ty, dst, src } => Action::Un {
            op: *op,
            ty: *ty,
            dst: dst.index() as u32,
            src: Opnd::of(*src),
        },
        InstKind::Cmp {
            op,
            ty,
            dst,
            lhs,
            rhs,
        } => Action::Cmp {
            op: *op,
            ty: *ty,
            dst: dst.index() as u32,
            lhs: Opnd::of(*lhs),
            rhs: Opnd::of(*rhs),
        },
        InstKind::Cast { dst, to, from, src } => Action::Cast {
            dst: dst.index() as u32,
            to: *to,
            from: *from,
            src: Opnd::of(*src),
        },
        InstKind::Load { dst, ty, addr } => Action::Load {
            dst: dst.index() as u32,
            ty: *ty,
            addr: Opnd::of(*addr),
        },
        InstKind::Store { ty, addr, value } => Action::Store {
            ty: *ty,
            addr: Opnd::of(*addr),
            value: Opnd::of(*value),
        },
        InstKind::Gep {
            dst,
            base,
            indices,
            offset,
        } => match indices.as_slice() {
            [] => Action::Gep1 {
                dst: dst.index() as u32,
                base: Opnd::of(*base),
                idx: Opnd::Int(0),
                scale: 0,
                offset: *offset,
            },
            [(idx, scale)] => Action::Gep1 {
                dst: dst.index() as u32,
                base: Opnd::of(*base),
                idx: Opnd::of(*idx),
                scale: *scale,
                offset: *offset,
            },
            pairs => Action::GepN {
                dst: dst.index() as u32,
                base: Opnd::of(*base),
                pairs: pairs.iter().map(|(v, s)| (Opnd::of(*v), *s)).collect(),
                offset: *offset,
            },
        },
        InstKind::Call { dst, callee, args } => Action::Call {
            dst: *dst,
            callee: *callee,
            args: args.iter().map(|a| Opnd::of(*a)).collect(),
        },
        InstKind::Intrin {
            dst,
            which,
            ty,
            args,
        } => {
            let mut packed = [Opnd::Int(0); 2];
            for (slot, a) in packed.iter_mut().zip(args.iter()) {
                *slot = Opnd::of(*a);
            }
            Action::Intrin {
                dst: dst.index() as u32,
                which: *which,
                ty: *ty,
                args: packed,
                arity: args.len() as u8,
            }
        }
        InstKind::FrameAddr { dst, offset } => Action::FrameAddr {
            dst: dst.index() as u32,
            offset: *offset,
        },
        InstKind::GlobalAddr { dst, global } => Action::GlobalAddr {
            dst: dst.index() as u32,
            global: *global,
        },
    }
}
