use crate::func::{Block, BlockId, Function};
use crate::inst::{BinOp, CmpOp, Inst, InstKind, Intrinsic, Span, TermKind, Terminator, UnOp};
use crate::module::{FuncId, Module};
use crate::types::ScalarTy;
use crate::value::{RegId, Value};

/// Incremental constructor for a [`Function`].
///
/// The builder owns a mutable borrow of the [`Module`] so that every emitted
/// instruction receives a module-unique static instruction id. Instructions
/// are appended at the *current block*, which starts as the entry block and
/// is changed with [`FunctionBuilder::switch_to`].
///
/// # Example
///
/// ```
/// use vectorscope_ir::{Module, FunctionBuilder, ScalarTy, Value, BinOp, CmpOp};
///
/// // fn count_to(n) { i = 0; while (i < n) i = i + 1; return i; }
/// let mut m = Module::new("demo");
/// let mut b = FunctionBuilder::new(&mut m, "count_to", &[ScalarTy::I64], Some(ScalarTy::I64));
/// let n = b.param(0);
/// let i = b.new_reg(ScalarTy::I64);
/// b.copy(i, Value::ImmInt(0), ScalarTy::I64);
/// let header = b.new_block();
/// let body = b.new_block();
/// let exit = b.new_block();
/// b.br(header);
/// b.switch_to(header);
/// let c = b.cmp(CmpOp::Lt, ScalarTy::I64, Value::Reg(i), Value::Reg(n));
/// b.cond_br(Value::Reg(c), body, exit);
/// b.switch_to(body);
/// let i2 = b.binop(BinOp::IAdd, ScalarTy::I64, Value::Reg(i), Value::ImmInt(1));
/// b.copy(i, Value::Reg(i2), ScalarTy::I64);
/// b.br(header);
/// b.switch_to(exit);
/// b.ret(Some(Value::Reg(i)));
/// let f = b.finish();
/// vectorscope_ir::verify::verify_function(&m, f).unwrap();
/// ```
#[derive(Debug)]
pub struct FunctionBuilder<'m> {
    module: &'m mut Module,
    func: Function,
    /// Slot to install into on finish (for reopened declarations).
    target: Option<FuncId>,
    current: BlockId,
    span: Span,
}

impl<'m> FunctionBuilder<'m> {
    /// Starts building a function named `name` with the given parameter and
    /// return types. Parameters occupy the first registers.
    pub fn new(
        module: &'m mut Module,
        name: &str,
        param_tys: &[ScalarTy],
        ret_ty: Option<ScalarTy>,
    ) -> Self {
        let func = Function::new(name, param_tys, ret_ty);
        FunctionBuilder {
            module,
            func,
            target: None,
            current: BlockId(0),
            span: Span::SYNTH,
        }
    }

    /// Reopens a function previously created with
    /// [`Module::declare_function`] to build its body. On
    /// [`FunctionBuilder::finish`] the body is installed into the declared
    /// slot, so calls emitted against the declared id remain valid.
    pub fn reopen(module: &'m mut Module, id: FuncId) -> Self {
        let func = module.take_function(id);
        FunctionBuilder {
            module,
            func,
            target: Some(id),
            current: BlockId(0),
            span: Span::SYNTH,
        }
    }

    /// Sets the source span attached to subsequently emitted instructions.
    pub fn set_span(&mut self, span: Span) -> &mut Self {
        self.span = span;
        self
    }

    /// The register holding parameter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn param(&self, i: usize) -> RegId {
        self.func.params()[i]
    }

    /// Allocates a fresh virtual register of type `ty`.
    pub fn new_reg(&mut self, ty: ScalarTy) -> RegId {
        self.func.add_reg(ty, None)
    }

    /// Allocates a fresh named register (name kept for diagnostics).
    pub fn new_named_reg(&mut self, ty: ScalarTy, name: &str) -> RegId {
        self.func.add_reg(ty, Some(name.to_string()))
    }

    /// Renames register `r` for diagnostics.
    pub fn name_reg(&mut self, r: RegId, name: &str) {
        self.func.set_reg_name(r, name.to_string());
    }

    /// Reserves `size` bytes (aligned to `align`) in the function's stack
    /// frame and returns the frame offset.
    pub fn alloc_stack(&mut self, size: u64, align: u64) -> u64 {
        self.func.alloc_frame(size, align)
    }

    /// Creates a new (empty, unterminated) block.
    pub fn new_block(&mut self) -> BlockId {
        self.func.add_block()
    }

    /// Makes `b` the insertion point for subsequent instructions.
    ///
    /// # Panics
    ///
    /// Panics if `b` already has a terminator.
    pub fn switch_to(&mut self, b: BlockId) {
        assert!(
            self.func.block(b).term.is_none(),
            "cannot insert into terminated block {b}"
        );
        self.current = b;
    }

    /// Whether the current block already ends in a terminator.
    pub fn is_terminated(&self) -> bool {
        self.func.block(self.current).term.is_some()
    }

    fn emit(&mut self, kind: InstKind) {
        let id = self.module.fresh_inst_id();
        let span = self.span;
        self.block_mut().insts.push(Inst { id, span, kind });
    }

    fn block_mut(&mut self) -> &mut Block {
        let cur = self.current;
        assert!(
            self.func.block(cur).term.is_none(),
            "emitting into terminated block {cur}"
        );
        self.func.block_mut(cur)
    }

    /// Emits `dst = lhs <op> rhs` into a fresh register and returns it.
    pub fn binop(&mut self, op: BinOp, ty: ScalarTy, lhs: Value, rhs: Value) -> RegId {
        let dst = self.new_reg(ty);
        self.emit(InstKind::Bin {
            op,
            ty,
            dst,
            lhs,
            rhs,
        });
        dst
    }

    /// Emits `dst = lhs <op> rhs` into the existing register `dst`.
    pub fn binop_into(&mut self, dst: RegId, op: BinOp, ty: ScalarTy, lhs: Value, rhs: Value) {
        self.emit(InstKind::Bin {
            op,
            ty,
            dst,
            lhs,
            rhs,
        });
    }

    /// Emits a unary operation into a fresh register.
    pub fn unop(&mut self, op: UnOp, ty: ScalarTy, src: Value) -> RegId {
        let dst = self.new_reg(ty);
        self.emit(InstKind::Un { op, ty, dst, src });
        dst
    }

    /// Emits a comparison producing an `i64` 0/1 into a fresh register.
    pub fn cmp(&mut self, op: CmpOp, ty: ScalarTy, lhs: Value, rhs: Value) -> RegId {
        let dst = self.new_reg(ScalarTy::I64);
        self.emit(InstKind::Cmp {
            op,
            ty,
            dst,
            lhs,
            rhs,
        });
        dst
    }

    /// Emits a conversion from `from` to `to` into a fresh register.
    pub fn cast(&mut self, from: ScalarTy, to: ScalarTy, src: Value) -> RegId {
        let dst = self.new_reg(to);
        self.emit(InstKind::Cast { dst, to, from, src });
        dst
    }

    /// Copies `src` into the existing register `dst` (`dst = src`).
    ///
    /// Encoded as an identity cast so the dynamic trace sees an explicit
    /// definition of `dst` (needed for last-writer register tracking).
    pub fn copy(&mut self, dst: RegId, src: Value, ty: ScalarTy) {
        self.emit(InstKind::Cast {
            dst,
            to: ty,
            from: ty,
            src,
        });
    }

    /// Emits a load of `ty` from `addr` into a fresh register.
    pub fn load(&mut self, ty: ScalarTy, addr: Value) -> RegId {
        let dst = self.new_reg(ty);
        self.emit(InstKind::Load { dst, ty, addr });
        dst
    }

    /// Emits a load of `ty` from `addr` into the existing register `dst`.
    pub fn load_into(&mut self, dst: RegId, ty: ScalarTy, addr: Value) {
        self.emit(InstKind::Load { dst, ty, addr });
    }

    /// Emits a store of `value` (of type `ty`) to `addr`.
    pub fn store(&mut self, ty: ScalarTy, addr: Value, value: Value) {
        self.emit(InstKind::Store { ty, addr, value });
    }

    /// Emits an address computation
    /// `dst = base + Σ indices[i].0 * indices[i].1 + offset`.
    pub fn gep(&mut self, base: Value, indices: Vec<(Value, i64)>, offset: i64) -> RegId {
        let dst = self.new_reg(ScalarTy::Ptr);
        self.emit(InstKind::Gep {
            dst,
            base,
            indices,
            offset,
        });
        dst
    }

    /// Emits a call to `callee`; returns the result register when the callee
    /// returns a value.
    ///
    /// # Panics
    ///
    /// Panics if `callee` is not a function of the module.
    pub fn call(&mut self, callee: FuncId, args: Vec<Value>) -> Option<RegId> {
        let ret_ty = self.module.function(callee).ret_ty();
        let dst = ret_ty.map(|ty| self.new_reg(ty));
        self.emit(InstKind::Call { dst, callee, args });
        dst
    }

    /// Emits an intrinsic application into a fresh register.
    ///
    /// # Panics
    ///
    /// Panics if the argument count does not match [`Intrinsic::arity`].
    pub fn intrinsic(&mut self, which: Intrinsic, ty: ScalarTy, args: Vec<Value>) -> RegId {
        assert_eq!(args.len(), which.arity(), "bad arity for {}", which.name());
        let dst = self.new_reg(ty);
        self.emit(InstKind::Intrin {
            dst,
            which,
            ty,
            args,
        });
        dst
    }

    /// Emits `dst = frame base + offset` (address of a stack slot) into a
    /// fresh pointer register.
    pub fn frame_addr(&mut self, offset: u64) -> RegId {
        let dst = self.new_reg(ScalarTy::Ptr);
        self.emit(InstKind::FrameAddr { dst, offset });
        dst
    }

    /// Emits `dst = &global` into a fresh pointer register.
    pub fn global_addr(&mut self, global: crate::module::GlobalId) -> RegId {
        let dst = self.new_reg(ScalarTy::Ptr);
        self.emit(InstKind::GlobalAddr { dst, global });
        dst
    }

    /// Read-only access to the module being built into (e.g. to resolve
    /// callees by name while lowering).
    pub fn module(&self) -> &Module {
        self.module
    }

    // ---- `_into` variants writing an existing destination register ----
    // (used by the textual-IR parser, which knows all registers up front)

    /// Emits a unary operation into the existing register `dst`.
    pub fn unop_into(&mut self, dst: RegId, op: UnOp, ty: ScalarTy, src: Value) {
        self.emit(InstKind::Un { op, ty, dst, src });
    }

    /// Emits a comparison into the existing register `dst`.
    pub fn cmp_into(&mut self, dst: RegId, op: CmpOp, ty: ScalarTy, lhs: Value, rhs: Value) {
        self.emit(InstKind::Cmp {
            op,
            ty,
            dst,
            lhs,
            rhs,
        });
    }

    /// Emits a conversion into the existing register `dst`.
    pub fn cast_into(&mut self, dst: RegId, from: ScalarTy, to: ScalarTy, src: Value) {
        self.emit(InstKind::Cast { dst, to, from, src });
    }

    /// Emits an address computation into the existing register `dst`.
    pub fn gep_into(&mut self, dst: RegId, base: Value, indices: Vec<(Value, i64)>, offset: i64) {
        self.emit(InstKind::Gep {
            dst,
            base,
            indices,
            offset,
        });
    }

    /// Emits a frame-address computation into the existing register `dst`.
    pub fn frame_addr_into(&mut self, dst: RegId, offset: u64) {
        self.emit(InstKind::FrameAddr { dst, offset });
    }

    /// Emits a global-address computation into the existing register `dst`.
    pub fn global_addr_into(&mut self, dst: RegId, global: crate::module::GlobalId) {
        self.emit(InstKind::GlobalAddr { dst, global });
    }

    /// Emits a call whose result (if any) lands in `dst`.
    pub fn call_into(&mut self, dst: Option<RegId>, callee: FuncId, args: Vec<Value>) {
        self.emit(InstKind::Call { dst, callee, args });
    }

    /// Emits an intrinsic application into the existing register `dst`.
    ///
    /// # Panics
    ///
    /// Panics if the argument count does not match [`Intrinsic::arity`].
    pub fn intrinsic_into(&mut self, dst: RegId, which: Intrinsic, ty: ScalarTy, args: Vec<Value>) {
        assert_eq!(args.len(), which.arity(), "bad arity for {}", which.name());
        self.emit(InstKind::Intrin {
            dst,
            which,
            ty,
            args,
        });
    }

    fn terminate(&mut self, kind: TermKind) {
        let id = self.module.fresh_inst_id();
        let span = self.span;
        let cur = self.current;
        assert!(
            self.func.block(cur).term.is_none(),
            "block {cur} already terminated"
        );
        self.func.block_mut(cur).term = Some(Terminator { id, span, kind });
    }

    /// Terminates the current block with an unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.terminate(TermKind::Br(target));
    }

    /// Terminates the current block with a conditional branch.
    pub fn cond_br(&mut self, cond: Value, then_bb: BlockId, else_bb: BlockId) {
        self.terminate(TermKind::CondBr {
            cond,
            then_bb,
            else_bb,
        });
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<Value>) {
        self.terminate(TermKind::Ret(value));
    }

    /// Finishes the function, installs it in the module, and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if any block is unterminated.
    pub fn finish(self) -> FuncId {
        for (b, block) in self.func.iter_blocks() {
            assert!(
                block.term.is_some(),
                "function `{}`: block {b} is unterminated",
                self.func.name()
            );
        }
        match self.target {
            Some(id) => {
                self.module.replace_function(id, self.func);
                id
            }
            None => self.module.push_function(self.func),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_straightline() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new(&mut m, "f", &[ScalarTy::F64], Some(ScalarTy::F64));
        let p = b.param(0);
        let x = b.binop(BinOp::FMul, ScalarTy::F64, Value::Reg(p), Value::Reg(p));
        b.ret(Some(Value::Reg(x)));
        let f = b.finish();
        assert_eq!(m.function(f).num_insts(), 1);
        assert_eq!(m.num_inst_ids(), 2); // fmul + ret
    }

    #[test]
    #[should_panic(expected = "unterminated")]
    fn unterminated_block_rejected() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new(&mut m, "f", &[], None);
        b.new_block(); // never terminated, never reached
        b.ret(None);
        b.finish();
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminate_rejected() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new(&mut m, "f", &[], None);
        b.ret(None);
        b.ret(None);
    }

    #[test]
    fn spans_attach_to_instructions() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new(&mut m, "f", &[], None);
        b.set_span(Span::new(42, 3));
        let r = b.binop(
            BinOp::IAdd,
            ScalarTy::I64,
            Value::ImmInt(1),
            Value::ImmInt(2),
        );
        let _ = r;
        b.ret(None);
        let f = b.finish();
        let inst = &m.function(f).blocks()[0].insts[0];
        assert_eq!(inst.span, Span::new(42, 3));
    }
}
