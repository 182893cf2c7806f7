//! Parser for the textual IR format produced by the pretty-printer.
//!
//! Mirrors LLVM's `.ll` / Cranelift's `.clif` round-trip convention: any
//! module printed with `Display` re-parses to a module that prints
//! byte-identically — static instruction ids and source spans are
//! recovered from the `; #id @line:col` comments (hand-written IR may
//! omit them, in which case ids are assigned in textual order). Useful
//! for writing analysis test cases as text and for golden tests.

use crate::func::BlockId;
use crate::inst::{BinOp, CmpOp, Intrinsic, Span, UnOp};
use crate::module::{FuncId, GlobalId, Module};
use crate::types::ScalarTy;
use crate::value::{RegId, Value};
use crate::FunctionBuilder;
use std::collections::HashMap;

/// A textual-IR parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line in the IR text.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ir parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

/// Parses the textual IR format back into a [`Module`].
///
/// # Example
///
/// ```
/// use vectorscope_ir::{Module, FunctionBuilder, ScalarTy, Value, BinOp};
///
/// let mut m = Module::new("demo");
/// let mut b = FunctionBuilder::new(&mut m, "sq", &[ScalarTy::F64], Some(ScalarTy::F64));
/// let p = b.param(0);
/// let r = b.binop(BinOp::FMul, ScalarTy::F64, Value::Reg(p), Value::Reg(p));
/// b.ret(Some(Value::Reg(r)));
/// b.finish();
///
/// let text = m.to_string();
/// let back = vectorscope_ir::parse::parse_module(&text).unwrap();
/// assert_eq!(back.to_string(), text);
/// ```
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line on malformed input.
pub fn parse_module(text: &str) -> PResult<Module> {
    Parser::new(text).parse()
}

/// One pre-scanned instruction line.
struct RawLine {
    line_no: u32,
    text: String,
    span: Span,
    /// Static id recovered from the `#id` comment, when present.
    id: Option<u32>,
}

struct RawBlock {
    insts: Vec<RawLine>,
}

struct RawFunc {
    name: String,
    params: Vec<ScalarTy>,
    ret: Option<ScalarTy>,
    frame: u64,
    blocks: Vec<RawBlock>,
    line_no: u32,
}

struct Parser<'s> {
    lines: Vec<(u32, &'s str)>,
    pos: usize,
}

impl<'s> Parser<'s> {
    fn new(text: &'s str) -> Self {
        let lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i as u32 + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty())
            .collect();
        Parser { lines, pos: 0 }
    }

    fn err<T>(&self, line: u32, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            line,
            message: msg.into(),
        })
    }

    fn peek(&self) -> Option<(u32, &'s str)> {
        self.lines.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<(u32, &'s str)> {
        let l = self.peek();
        if l.is_some() {
            self.pos += 1;
        }
        l
    }

    fn parse(mut self) -> PResult<Module> {
        let (ln, header) = self.next().ok_or_else(|| ParseError {
            line: 0,
            message: "empty input".into(),
        })?;
        let name = header
            .strip_prefix("module ")
            .and_then(|r| r.strip_suffix(" {"))
            .ok_or_else(|| ParseError {
                line: ln,
                message: "expected `module <name> {`".into(),
            })?;
        let mut module = Module::new(name);

        // Globals, then functions, then the closing brace.
        let mut raw_funcs: Vec<RawFunc> = Vec::new();
        loop {
            let Some((ln, line)) = self.peek() else {
                return self.err(0, "unexpected end of input (missing `}`)");
            };
            if line == "}" {
                self.pos += 1;
                break;
            }
            if let Some(rest) = line.strip_prefix("global ") {
                self.pos += 1;
                // `a : 128 bytes`
                let (gname, size) = rest
                    .split_once(" : ")
                    .and_then(|(n, s)| {
                        s.strip_suffix(" bytes")
                            .and_then(|b| b.parse::<u64>().ok())
                            .map(|b| (n, b))
                    })
                    .ok_or_else(|| ParseError {
                        line: ln,
                        message: "expected `global <name> : <N> bytes`".into(),
                    })?;
                module.add_global(gname, size, None);
                continue;
            }
            if line.starts_with("fn ") {
                raw_funcs.push(self.parse_raw_func()?);
                continue;
            }
            return self.err(ln, format!("unexpected line `{line}`"));
        }

        // Declare all functions first so calls can resolve forward.
        let ids: Vec<FuncId> = raw_funcs
            .iter()
            .map(|f| module.declare_function(&f.name, &f.params, f.ret))
            .collect();
        for (raw, &id) in raw_funcs.iter().zip(&ids) {
            build_function(&mut module, raw, id)?;
        }
        apply_static_ids(&mut module, &raw_funcs, &ids);
        Ok(module)
    }

    /// Parses one `fn ... { ... }` region into raw lines.
    fn parse_raw_func(&mut self) -> PResult<RawFunc> {
        let (ln, line) = self.next().expect("caller peeked");
        // `fn name(%0: f64, %1: i64) -> f64 {`
        let rest = line.strip_prefix("fn ").expect("caller checked");
        let open = rest.find('(').ok_or_else(|| ParseError {
            line: ln,
            message: "expected `(` in function header".into(),
        })?;
        let name = rest[..open].to_string();
        let close = rest.rfind(')').ok_or_else(|| ParseError {
            line: ln,
            message: "expected `)` in function header".into(),
        })?;
        let params_text = &rest[open + 1..close];
        let mut params = Vec::new();
        for p in params_text.split(',').filter(|p| !p.trim().is_empty()) {
            let ty = p
                .split(':')
                .nth(1)
                .map(str::trim)
                .and_then(parse_ty)
                .ok_or_else(|| ParseError {
                    line: ln,
                    message: format!("bad parameter `{p}`"),
                })?;
            params.push(ty);
        }
        let tail = rest[close + 1..].trim();
        let ret = if let Some(r) = tail.strip_prefix("-> ") {
            let ty_text = r.strip_suffix(" {").unwrap_or(r).trim();
            Some(parse_ty(ty_text).ok_or_else(|| ParseError {
                line: ln,
                message: format!("bad return type `{ty_text}`"),
            })?)
        } else {
            None
        };

        let mut frame = 0u64;
        let mut blocks: Vec<RawBlock> = Vec::new();
        loop {
            let Some((ln2, line)) = self.next() else {
                return self.err(ln, "unterminated function body");
            };
            if line == "}" {
                break;
            }
            if let Some(rest) = line.strip_prefix("frame ") {
                frame = rest
                    .strip_suffix(" bytes")
                    .and_then(|b| b.parse().ok())
                    .ok_or_else(|| ParseError {
                        line: ln2,
                        message: "bad frame line".into(),
                    })?;
                continue;
            }
            if let Some(label) = line.strip_suffix(':') {
                if !label.starts_with("bb") {
                    return self.err(ln2, format!("bad block label `{label}`"));
                }
                blocks.push(RawBlock { insts: Vec::new() });
                continue;
            }
            // Instruction line: strip the trailing `; #id @span` comment.
            let (text, span, id) = split_comment(line);
            let Some(block) = blocks.last_mut() else {
                return self.err(ln2, "instruction before first block label");
            };
            block.insts.push(RawLine {
                line_no: ln2,
                text: text.to_string(),
                span,
                id,
            });
        }
        Ok(RawFunc {
            name,
            params,
            ret,
            frame,
            blocks,
            line_no: ln,
        })
    }
}

/// Splits `inst text  ; #id @line:col` and recovers the span and static id.
fn split_comment(line: &str) -> (&str, Span, Option<u32>) {
    match line.split_once(';') {
        Some((text, comment)) => {
            let span = comment
                .split_whitespace()
                .find_map(|w| w.strip_prefix('@'))
                .and_then(|s| {
                    let (l, c) = s.split_once(':')?;
                    Some(Span::new(l.parse().ok()?, c.parse().ok()?))
                })
                .unwrap_or(Span::SYNTH);
            let id = comment
                .split_whitespace()
                .find_map(|w| w.strip_prefix('#'))
                .and_then(|s| s.parse().ok());
            (text.trim(), span, id)
        }
        None => (line.trim(), Span::SYNTH, None),
    }
}

fn parse_ty(s: &str) -> Option<ScalarTy> {
    Some(match s {
        "i64" => ScalarTy::I64,
        "f32" => ScalarTy::F32,
        "f64" => ScalarTy::F64,
        "ptr" => ScalarTy::Ptr,
        _ => return None,
    })
}

fn parse_reg(s: &str) -> Option<RegId> {
    s.strip_prefix('%')?.parse().ok().map(RegId)
}

fn parse_value(s: &str) -> Option<Value> {
    let s = s.trim();
    if let Some(r) = parse_reg(s) {
        return Some(Value::Reg(r));
    }
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        return s.parse::<f64>().ok().map(Value::ImmFloat);
    }
    s.parse::<i64>().ok().map(Value::ImmInt)
}

fn parse_block_ref(s: &str) -> Option<BlockId> {
    s.trim().strip_prefix("bb")?.parse().ok().map(BlockId)
}

/// Re-applies the `#id` static instruction ids recorded in printed
/// comments. The rebuild numbers instructions in *emission* order (here:
/// textual order), but the original module may have been built with
/// interleaved `switch_to` calls, so its printed ids need not be textually
/// sorted — without this pass such modules would not round-trip
/// byte-identically. Applied only when every line in the module carries an
/// id and the ids are unique; otherwise (hand-written IR without
/// comments) the rebuild's sequential numbering stands.
fn apply_static_ids(module: &mut Module, raw_funcs: &[RawFunc], ids: &[FuncId]) {
    let mut seen = std::collections::HashSet::new();
    let mut max = 0u32;
    for raw in raw_funcs {
        for block in &raw.blocks {
            for l in &block.insts {
                let Some(id) = l.id else { return };
                if !seen.insert(id) {
                    return;
                }
                max = max.max(id);
            }
        }
    }
    if seen.is_empty() {
        return;
    }
    for (raw, &fid) in raw_funcs.iter().zip(ids) {
        let mut func = module.take_function(fid);
        for (bi, rb) in raw.blocks.iter().enumerate() {
            let block = func.block_mut(BlockId(bi as u32));
            let (term_line, inst_lines) = rb.insts.split_last().expect("blocks are non-empty");
            for (inst, l) in block.insts.iter_mut().zip(inst_lines) {
                inst.id = crate::InstId(l.id.expect("checked above"));
            }
            if let Some(t) = block.term.as_mut() {
                t.id = crate::InstId(term_line.id.expect("checked above"));
            }
        }
        module.replace_function(fid, func);
    }
    module.set_next_inst_id(max + 1);
}

/// Second pass over one function: infer register types from definitions,
/// then rebuild via the builder.
fn build_function(module: &mut Module, raw: &RawFunc, id: FuncId) -> PResult<()> {
    // --- pass 1: register types ---
    let mut reg_tys: HashMap<u32, ScalarTy> = HashMap::new();
    for (i, &ty) in raw.params.iter().enumerate() {
        reg_tys.insert(i as u32, ty);
    }
    let err = |line: u32, msg: String| ParseError { line, message: msg };
    for block in &raw.blocks {
        for l in &block.insts {
            let Some((dst, rhs)) = l.text.split_once(" = ") else {
                continue;
            };
            let Some(reg) = parse_reg(dst.trim()) else {
                continue;
            };
            let ty = infer_def_ty(module, rhs.trim(), raw, &reg_tys)
                .ok_or_else(|| err(l.line_no, format!("cannot infer type of `{}`", l.text)))?;
            reg_tys.insert(reg.0, ty);
        }
    }

    // --- pass 2: emit ---
    let mut b = FunctionBuilder::reopen(module, id);
    // Materialize registers 0..max in order.
    let max_reg = reg_tys.keys().copied().max().unwrap_or(0);
    for r in raw.params.len() as u32..=max_reg {
        let ty = reg_tys.get(&r).copied().unwrap_or(ScalarTy::I64);
        let got = b.new_reg(ty);
        debug_assert_eq!(got.0, r);
    }
    if raw.frame > 0 {
        b.alloc_stack(raw.frame, 1);
    }
    // Pre-create blocks (bb0 exists).
    for _ in 1..raw.blocks.len() {
        b.new_block();
    }
    for (bi, block) in raw.blocks.iter().enumerate() {
        b.switch_to(BlockId(bi as u32));
        let n = block.insts.len();
        for (li, l) in block.insts.iter().enumerate() {
            b.set_span(l.span);
            let is_term = li == n - 1;
            emit_line(&mut b, &l.text, is_term, l.line_no)?;
        }
        if n == 0 {
            return Err(err(raw.line_no, format!("block bb{bi} is empty")));
        }
    }
    b.finish();
    Ok(())
}

fn infer_def_ty(
    module: &Module,
    rhs: &str,
    _raw: &RawFunc,
    _reg_tys: &HashMap<u32, ScalarTy>,
) -> Option<ScalarTy> {
    let cut = rhs.find([' ', '(']).unwrap_or(rhs.len());
    let op = &rhs[..cut];
    let mut parts = op.split('.');
    let head = parts.next()?;
    match head {
        "iadd" | "isub" | "imul" | "idiv" | "irem" | "ineg" => Some(ScalarTy::I64),
        "fadd" | "fsub" | "fmul" | "fdiv" | "fneg" | "load" | "copy" => parse_ty(parts.next()?),
        "cmp" => Some(ScalarTy::I64),
        "cast" => {
            let _from = parts.next()?;
            parse_ty(parts.next()?)
        }
        "gep" | "frame_addr" | "global_addr" => Some(ScalarTy::Ptr),
        "call" => {
            // `call fnK(...)`
            let k: u32 = rhs.split_once("fn")?.1.split('(').next()?.parse().ok()?;
            module.functions().get(k as usize)?.ret_ty()
        }
        name => {
            // Intrinsic `exp.f64(...)`.
            Intrinsic::from_name(name)?;
            parse_ty(parts.next()?)
        }
    }
}

/// Parses and emits one instruction or terminator line.
fn emit_line(b: &mut FunctionBuilder<'_>, text: &str, is_term: bool, line: u32) -> PResult<()> {
    let err = |msg: String| ParseError { line, message: msg };
    let bad = |what: &str| err(format!("malformed {what}: `{text}`"));

    // Terminators, which only a block's last line may hold.
    let terminator = text == "ret"
        || ["br ", "condbr ", "ret "]
            .iter()
            .any(|p| text.starts_with(p));
    if terminator && !is_term {
        return Err(err(format!(
            "terminator `{text}` before the end of its block"
        )));
    }
    if let Some(rest) = text.strip_prefix("br ") {
        let t = parse_block_ref(rest).ok_or_else(|| bad("br"))?;
        b.br(t);
        return Ok(());
    }
    if let Some(rest) = text.strip_prefix("condbr ") {
        let mut it = rest.split(',').map(str::trim);
        let cond = it
            .next()
            .and_then(parse_value)
            .ok_or_else(|| bad("condbr"))?;
        let t = it
            .next()
            .and_then(parse_block_ref)
            .ok_or_else(|| bad("condbr"))?;
        let e = it
            .next()
            .and_then(parse_block_ref)
            .ok_or_else(|| bad("condbr"))?;
        b.cond_br(cond, t, e);
        return Ok(());
    }
    if text == "ret" {
        b.ret(None);
        return Ok(());
    }
    if let Some(rest) = text.strip_prefix("ret ") {
        let v = parse_value(rest).ok_or_else(|| bad("ret"))?;
        b.ret(Some(v));
        return Ok(());
    }

    if is_term {
        return Err(err(format!(
            "block must end in a terminator, found `{text}`"
        )));
    }

    // `store.ty [addr], value` defines nothing.
    if let Some(rest) = text.strip_prefix("store.") {
        let (ty_text, rest) = rest.split_once(' ').ok_or_else(|| bad("store"))?;
        let ty = parse_ty(ty_text).ok_or_else(|| bad("store type"))?;
        let (addr_text, val_text) = rest.split_once(',').ok_or_else(|| bad("store"))?;
        let addr = addr_text
            .trim()
            .strip_prefix('[')
            .and_then(|s| s.strip_suffix(']'))
            .and_then(parse_value)
            .ok_or_else(|| bad("store address"))?;
        let value = parse_value(val_text).ok_or_else(|| bad("store value"))?;
        b.store(ty, addr, value);
        return Ok(());
    }

    // Bare void call: `call fnK(...)`.
    if let Some(rest) = text.strip_prefix("call ") {
        let (callee, args) = parse_call(rest).ok_or_else(|| bad("call"))?;
        b.call_into(None, callee, args);
        return Ok(());
    }

    // Everything else: `%d = ...`.
    let (dst_text, rhs) = text.split_once(" = ").ok_or_else(|| bad("instruction"))?;
    let dst = parse_reg(dst_text.trim()).ok_or_else(|| bad("destination"))?;
    let (op_text, args_text) = match rhs.find([' ', '(']) {
        Some(i) => (&rhs[..i], rhs[i..].trim_start()),
        None => (rhs, ""),
    };
    let mut op_parts = op_text.split('.');
    let head = op_parts.next().ok_or_else(|| bad("opcode"))?;

    let binops: &[(&str, BinOp)] = &[
        ("iadd", BinOp::IAdd),
        ("isub", BinOp::ISub),
        ("imul", BinOp::IMul),
        ("idiv", BinOp::IDiv),
        ("irem", BinOp::IRem),
        ("fadd", BinOp::FAdd),
        ("fsub", BinOp::FSub),
        ("fmul", BinOp::FMul),
        ("fdiv", BinOp::FDiv),
    ];
    if let Some((_, op)) = binops.iter().find(|(n, _)| *n == head) {
        let ty = op_parts
            .next()
            .and_then(parse_ty)
            .ok_or_else(|| bad("type"))?;
        let (l, r) = args_text.split_once(',').ok_or_else(|| bad("operands"))?;
        let lhs = parse_value(l).ok_or_else(|| bad("lhs"))?;
        let rhs_v = parse_value(r).ok_or_else(|| bad("rhs"))?;
        b.binop_into(dst, *op, ty, lhs, rhs_v);
        return Ok(());
    }
    match head {
        "ineg" | "fneg" => {
            let ty = op_parts
                .next()
                .and_then(parse_ty)
                .ok_or_else(|| bad("type"))?;
            let op = if head == "ineg" {
                UnOp::INeg
            } else {
                UnOp::FNeg
            };
            let src = parse_value(args_text).ok_or_else(|| bad("operand"))?;
            // No unop_into in the builder; emit via binop trick is wrong, so
            // extend: emit unop into dst through copy. Use dedicated path:
            b.unop_into(dst, op, ty, src);
            Ok(())
        }
        "cmp" => {
            let pred = match op_parts.next() {
                Some("eq") => CmpOp::Eq,
                Some("ne") => CmpOp::Ne,
                Some("lt") => CmpOp::Lt,
                Some("le") => CmpOp::Le,
                Some("gt") => CmpOp::Gt,
                Some("ge") => CmpOp::Ge,
                _ => return Err(bad("predicate")),
            };
            let ty = op_parts
                .next()
                .and_then(parse_ty)
                .ok_or_else(|| bad("type"))?;
            let (l, r) = args_text.split_once(',').ok_or_else(|| bad("operands"))?;
            let lhs = parse_value(l).ok_or_else(|| bad("lhs"))?;
            let rhs_v = parse_value(r).ok_or_else(|| bad("rhs"))?;
            b.cmp_into(dst, pred, ty, lhs, rhs_v);
            Ok(())
        }
        "copy" => {
            let ty = op_parts
                .next()
                .and_then(parse_ty)
                .ok_or_else(|| bad("type"))?;
            let src = parse_value(args_text).ok_or_else(|| bad("operand"))?;
            b.copy(dst, src, ty);
            Ok(())
        }
        "cast" => {
            let from = op_parts
                .next()
                .and_then(parse_ty)
                .ok_or_else(|| bad("from"))?;
            let to = op_parts
                .next()
                .and_then(parse_ty)
                .ok_or_else(|| bad("to"))?;
            let src = parse_value(args_text).ok_or_else(|| bad("operand"))?;
            b.cast_into(dst, from, to, src);
            Ok(())
        }
        "load" => {
            let ty = op_parts
                .next()
                .and_then(parse_ty)
                .ok_or_else(|| bad("type"))?;
            let addr = args_text
                .strip_prefix('[')
                .and_then(|s| s.strip_suffix(']'))
                .and_then(parse_value)
                .ok_or_else(|| bad("address"))?;
            b.load_into(dst, ty, addr);
            Ok(())
        }
        "gep" => {
            // `gep base + idx*scale + idx*scale + off`
            let mut terms = args_text.split(" + ");
            let base = terms
                .next()
                .and_then(parse_value)
                .ok_or_else(|| bad("base"))?;
            let mut indices = Vec::new();
            let mut offset = 0i64;
            for t in terms {
                if let Some((idx, scale)) = t.split_once('*') {
                    let idx = parse_value(idx).ok_or_else(|| bad("index"))?;
                    let scale: i64 = scale.trim().parse().map_err(|_| bad("scale"))?;
                    indices.push((idx, scale));
                } else {
                    offset = t.trim().parse().map_err(|_| bad("offset"))?;
                }
            }
            b.gep_into(dst, base, indices, offset);
            Ok(())
        }
        "frame_addr" => {
            let off: u64 = args_text.trim().parse().map_err(|_| bad("offset"))?;
            b.frame_addr_into(dst, off);
            Ok(())
        }
        "global_addr" => {
            let k: u32 = args_text
                .trim()
                .strip_prefix('@')
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("global"))?;
            b.global_addr_into(dst, GlobalId(k));
            Ok(())
        }
        "call" => {
            let (callee, args) = parse_call(args_text).ok_or_else(|| bad("call"))?;
            b.call_into(Some(dst), callee, args);
            Ok(())
        }
        name => {
            let which = Intrinsic::from_name(name).ok_or_else(|| bad("opcode"))?;
            let ty = op_parts
                .next()
                .and_then(parse_ty)
                .ok_or_else(|| bad("type"))?;
            let args = parse_args(args_text).ok_or_else(|| bad("arguments"))?;
            b.intrinsic_into(dst, which, ty, args);
            Ok(())
        }
    }
}

/// Parses `fnK(a, b, c)`.
fn parse_call(text: &str) -> Option<(FuncId, Vec<Value>)> {
    let rest = text.strip_prefix("fn")?;
    let (k, args) = rest.split_once('(')?;
    let callee = FuncId(k.parse().ok()?);
    let args = parse_args(&format!("({args}"))?;
    Some((callee, args))
}

/// Parses `(a, b, c)`.
fn parse_args(text: &str) -> Option<Vec<Value>> {
    let inner = text.trim().strip_prefix('(')?.strip_suffix(')')?;
    if inner.trim().is_empty() {
        return Some(Vec::new());
    }
    inner.split(',').map(parse_value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-trip: print → parse → print must be a fixed point.
    fn roundtrip(module: &Module) {
        let text = module.to_string();
        let back = parse_module(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(back.to_string(), text);
        crate::verify::verify_module(&back).unwrap();
    }

    #[test]
    fn roundtrip_straightline() {
        let mut m = Module::new("m");
        m.add_global("a", 64, None);
        let mut b = FunctionBuilder::new(&mut m, "f", &[ScalarTy::F64], Some(ScalarTy::F64));
        let p = b.param(0);
        let g = b.global_addr(GlobalId(0));
        let addr = b.gep(Value::Reg(g), vec![(Value::ImmInt(2), 8)], 16);
        let x = b.load(ScalarTy::F64, Value::Reg(addr));
        let y = b.binop(BinOp::FAdd, ScalarTy::F64, Value::Reg(p), Value::Reg(x));
        b.store(ScalarTy::F64, Value::Reg(addr), Value::Reg(y));
        b.ret(Some(Value::Reg(y)));
        b.finish();
        roundtrip(&m);
    }

    #[test]
    fn roundtrip_with_control_flow_and_calls() {
        let mut m = Module::new("m");
        m.add_global("data", 128, None);
        // callee
        let mut b = FunctionBuilder::new(&mut m, "helper", &[ScalarTy::F64], Some(ScalarTy::F64));
        let p = b.param(0);
        let r = b.intrinsic(Intrinsic::Sqrt, ScalarTy::F64, vec![Value::Reg(p)]);
        b.ret(Some(Value::Reg(r)));
        let helper = b.finish();
        // caller with a loop
        let mut b = FunctionBuilder::new(&mut m, "main", &[], None);
        let i = b.new_reg(ScalarTy::I64);
        b.copy(i, Value::ImmInt(0), ScalarTy::I64);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let c = b.cmp(CmpOp::Lt, ScalarTy::I64, Value::Reg(i), Value::ImmInt(8));
        b.cond_br(Value::Reg(c), body, exit);
        b.switch_to(body);
        let g = b.global_addr(GlobalId(0));
        let addr = b.gep(Value::Reg(g), vec![(Value::Reg(i), 8)], 0);
        let x = b.load(ScalarTy::F64, Value::Reg(addr));
        let s = b.call(helper, vec![Value::Reg(x)]).unwrap();
        b.store(ScalarTy::F64, Value::Reg(addr), Value::Reg(s));
        let i2 = b.binop(BinOp::IAdd, ScalarTy::I64, Value::Reg(i), Value::ImmInt(1));
        b.copy(i, Value::Reg(i2), ScalarTy::I64);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        b.finish();
        roundtrip(&m);
    }

    #[test]
    fn roundtrip_frontend_output() {
        // The parser must handle everything the frontend emits.
        // (Uses a hand-built equivalent since this crate cannot depend on
        // the frontend; the frontend's own tests cover its constructs.)
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new(&mut m, "mixed", &[ScalarTy::I64], Some(ScalarTy::F64));
        let n = b.param(0);
        let f = b.cast(ScalarTy::I64, ScalarTy::F64, Value::Reg(n));
        let half = b.binop(
            BinOp::FMul,
            ScalarTy::F64,
            Value::Reg(f),
            Value::ImmFloat(0.5),
        );
        let neg = b.unop(UnOp::FNeg, ScalarTy::F64, Value::Reg(half));
        let fr = b.alloc_stack(8, 8);
        let slot = b.frame_addr(fr);
        b.store(ScalarTy::F64, Value::Reg(slot), Value::Reg(neg));
        let back = b.load(ScalarTy::F64, Value::Reg(slot));
        b.ret(Some(Value::Reg(back)));
        b.finish();
        roundtrip(&m);
    }

    #[test]
    fn parse_errors_carry_lines() {
        let e = parse_module("module m {\n  fn f() {\n  bb0:\n    bogus op\n  }\n}").unwrap_err();
        assert!(e.line > 0);
        assert!(e.to_string().contains("line"));
        assert!(parse_module("not a module").is_err());
        assert!(parse_module("").is_err());
    }

    #[test]
    fn terminators_end_their_block() {
        let e =
            parse_module("module m {\n  fn f() {\n  bb0:\n    ret\n    ret\n  }\n}").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("before the end"), "{e}");
    }

    #[test]
    fn float_literals_roundtrip() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new(&mut m, "f", &[], Some(ScalarTy::F64));
        let x = b.binop(
            BinOp::FAdd,
            ScalarTy::F64,
            Value::ImmFloat(1e-10),
            Value::ImmFloat(-2.5),
        );
        b.ret(Some(Value::Reg(x)));
        b.finish();
        roundtrip(&m);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{BinOp, CmpOp, FunctionBuilder, Intrinsic, UnOp};
    use proptest::prelude::*;

    /// One random straight-line instruction description.
    #[derive(Debug, Clone)]
    enum Op {
        Bin(u8, u8, i64),
        Un(u8),
        Cmp(u8),
        CastIF,
        CastFI,
        LoadStore(u8),
        Gep(u8, i64, i64),
        Intrin(u8),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u8>(), any::<u8>(), -100i64..100).prop_map(|(a, b, c)| Op::Bin(a, b, c)),
            any::<u8>().prop_map(Op::Un),
            any::<u8>().prop_map(Op::Cmp),
            Just(Op::CastIF),
            Just(Op::CastFI),
            any::<u8>().prop_map(Op::LoadStore),
            (any::<u8>(), 1i64..64, -32i64..32).prop_map(|(a, b, c)| Op::Gep(a, b, c)),
            any::<u8>().prop_map(Op::Intrin),
        ]
    }

    /// Builds a random (but verifiable) module from op descriptions and
    /// checks the textual round-trip.
    fn build_random(ops: &[Op]) -> Module {
        let mut m = Module::new("fuzz");
        m.add_global("g", 4096, None);
        let mut b = FunctionBuilder::new(&mut m, "f", &[ScalarTy::I64, ScalarTy::F64], None);
        let mut ints = vec![b.param(0)];
        let mut floats = vec![b.param(1)];
        let base = b.global_addr(GlobalId(0));
        let mut ptrs = vec![base];
        for op in ops {
            match op {
                Op::Bin(l, r, imm) => {
                    let lhs = Value::Reg(ints[*l as usize % ints.len()]);
                    let rhs = if *imm % 2 == 0 {
                        Value::ImmInt((*imm).max(1))
                    } else {
                        Value::Reg(ints[*r as usize % ints.len()])
                    };
                    // Avoid div/rem (possible traps are irrelevant: we never
                    // execute, but keep the module simple).
                    let which = [BinOp::IAdd, BinOp::ISub, BinOp::IMul][*imm as usize % 3];
                    ints.push(b.binop(which, ScalarTy::I64, lhs, rhs));
                }
                Op::Un(i) => {
                    let v = Value::Reg(floats[*i as usize % floats.len()]);
                    floats.push(b.unop(UnOp::FNeg, ScalarTy::F64, v));
                }
                Op::Cmp(i) => {
                    let v = Value::Reg(ints[*i as usize % ints.len()]);
                    ints.push(b.cmp(CmpOp::Lt, ScalarTy::I64, v, Value::ImmInt(5)));
                }
                Op::CastIF => {
                    let v = Value::Reg(ints[ints.len() - 1]);
                    floats.push(b.cast(ScalarTy::I64, ScalarTy::F64, v));
                }
                Op::CastFI => {
                    let v = Value::Reg(floats[floats.len() - 1]);
                    ints.push(b.cast(ScalarTy::F64, ScalarTy::I64, v));
                }
                Op::LoadStore(i) => {
                    let p = Value::Reg(ptrs[*i as usize % ptrs.len()]);
                    let x = b.load(ScalarTy::F64, p);
                    let y = b.binop(
                        BinOp::FAdd,
                        ScalarTy::F64,
                        Value::Reg(x),
                        Value::ImmFloat(1.5),
                    );
                    b.store(ScalarTy::F64, p, Value::Reg(y));
                    floats.push(y);
                }
                Op::Gep(i, scale, off) => {
                    let p = Value::Reg(ptrs[*i as usize % ptrs.len()]);
                    let idx = Value::Reg(ints[*i as usize % ints.len()]);
                    ptrs.push(b.gep(p, vec![(idx, *scale)], *off));
                }
                Op::Intrin(i) => {
                    let v = Value::Reg(floats[*i as usize % floats.len()]);
                    let which = [Intrinsic::Sqrt, Intrinsic::Fabs, Intrinsic::Exp][*i as usize % 3];
                    floats.push(b.intrinsic(which, ScalarTy::F64, vec![v]));
                }
            }
        }
        b.ret(None);
        b.finish();
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_modules_roundtrip(ops in prop::collection::vec(arb_op(), 0..40)) {
            let m = build_random(&ops);
            crate::verify::verify_module(&m).expect("built module verifies");
            let text = m.to_string();
            let back = parse_module(&text).expect("parses");
            prop_assert_eq!(back.to_string(), text);
            crate::verify::verify_module(&back).expect("reparsed module verifies");
        }
    }
}
