//! Semantic types, struct layout, and compile-time constant evaluation.

use crate::ast::{BinKind, Expr, StructDecl, TypeExpr, UnKind};
use crate::CompileError;
use std::collections::HashMap;
use vectorscope_ir::ScalarTy;

/// A resolved Kern type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ty {
    /// 64-bit signed integer.
    Int,
    /// Boolean (stored as i64 0/1).
    Bool,
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
    /// No value.
    Void,
    /// Pointer to a pointee type (which may be an array type for decayed
    /// multi-dimensional array parameters).
    Ptr(Box<Ty>),
    /// Array with compile-time extents, row-major.
    Array {
        /// Element type (scalar or struct).
        elem: Box<Ty>,
        /// Extents, outermost first.
        dims: Vec<u64>,
    },
    /// A named struct (index into the [`TypeTable`]).
    Struct(usize),
}

impl Ty {
    /// The machine scalar type, if this is a scalar.
    pub fn scalar(&self) -> Option<ScalarTy> {
        match self {
            Ty::Int => Some(ScalarTy::I64),
            Ty::Bool => Some(ScalarTy::I64),
            Ty::F32 => Some(ScalarTy::F32),
            Ty::F64 => Some(ScalarTy::F64),
            Ty::Ptr(_) => Some(ScalarTy::Ptr),
            _ => None,
        }
    }

    /// Whether this is a numeric scalar (int or float).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Ty::Int | Ty::F32 | Ty::F64)
    }

    /// Whether this is a floating-point scalar.
    pub fn is_float(&self) -> bool {
        matches!(self, Ty::F32 | Ty::F64)
    }
}

/// Layout of one struct: field offsets, total size, alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructLayout {
    /// Struct name.
    pub name: String,
    /// `(field name, field type, byte offset)` in declaration order.
    pub fields: Vec<(String, Ty, u64)>,
    /// Total size in bytes (padded to alignment).
    pub size: u64,
    /// Alignment in bytes.
    pub align: u64,
}

impl StructLayout {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&(String, Ty, u64)> {
        self.fields.iter().find(|(n, _, _)| n == name)
    }
}

/// Resolved struct layouts plus compile-time integer constants.
#[derive(Debug, Clone, Default)]
pub struct TypeTable {
    structs: Vec<StructLayout>,
    by_name: HashMap<String, usize>,
    consts: HashMap<String, i64>,
}

impl TypeTable {
    /// Builds the table from struct declarations and constant bindings.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown field types, non-constant array
    /// extents, or duplicate struct names.
    pub fn build(
        structs: &[StructDecl],
        consts: HashMap<String, i64>,
    ) -> Result<TypeTable, CompileError> {
        let mut table = TypeTable {
            structs: Vec::new(),
            by_name: HashMap::new(),
            consts,
        };
        for decl in structs {
            if table.by_name.contains_key(&decl.name) {
                return Err(CompileError::new(
                    format!("duplicate struct `{}`", decl.name),
                    decl.pos.line,
                    decl.pos.col,
                ));
            }
            let layout = table.layout_struct(decl)?;
            table.by_name.insert(decl.name.clone(), table.structs.len());
            table.structs.push(layout);
        }
        Ok(table)
    }

    fn layout_struct(&self, decl: &StructDecl) -> Result<StructLayout, CompileError> {
        let mut fields = Vec::new();
        let mut offset = 0u64;
        let mut align = 1u64;
        for f in &decl.fields {
            let base = self.resolve(&f.ty, f.pos.line, f.pos.col)?;
            let ty = if f.dims.is_empty() {
                base
            } else {
                let dims = f
                    .dims
                    .iter()
                    .map(|d| self.eval_const_usize(d))
                    .collect::<Result<Vec<_>, _>>()?;
                Ty::Array {
                    elem: Box::new(base),
                    dims,
                }
            };
            let (size, falign) = self
                .size_align(&ty)
                .map_err(|msg| CompileError::new(msg, f.pos.line, f.pos.col))?;
            offset = offset.div_ceil(falign) * falign;
            fields.push((f.name.clone(), ty, offset));
            offset += size;
            align = align.max(falign);
        }
        let size = offset.div_ceil(align) * align;
        Ok(StructLayout {
            name: decl.name.clone(),
            fields,
            size: size.max(align),
            align,
        })
    }

    /// Resolves a surface type expression to a semantic type.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown struct names.
    pub fn resolve(&self, ty: &TypeExpr, line: u32, col: u32) -> Result<Ty, CompileError> {
        Ok(match ty {
            TypeExpr::Int => Ty::Int,
            TypeExpr::Bool => Ty::Bool,
            TypeExpr::Float => Ty::F32,
            TypeExpr::Double => Ty::F64,
            TypeExpr::Void => Ty::Void,
            TypeExpr::Struct(name) => {
                let idx = self.by_name.get(name).ok_or_else(|| {
                    CompileError::new(format!("unknown struct `{name}`"), line, col)
                })?;
                Ty::Struct(*idx)
            }
            TypeExpr::Ptr(inner) => Ty::Ptr(Box::new(self.resolve(inner, line, col)?)),
        })
    }

    /// Size and alignment of a type in bytes.
    ///
    /// # Errors
    ///
    /// Returns a message for unsized types (`void`).
    pub fn size_align(&self, ty: &Ty) -> Result<(u64, u64), String> {
        Ok(match ty {
            Ty::Int | Ty::Bool | Ty::F64 => (8, 8),
            Ty::F32 => (4, 4),
            Ty::Ptr(_) => (8, 8),
            Ty::Void => return Err("`void` has no size".into()),
            Ty::Array { elem, dims } => {
                let (esize, ealign) = self.size_align(elem)?;
                let count: u64 = dims.iter().product();
                (esize * count, ealign)
            }
            Ty::Struct(idx) => {
                let s = &self.structs[*idx];
                (s.size, s.align)
            }
        })
    }

    /// The layout of struct `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn struct_layout(&self, idx: usize) -> &StructLayout {
        &self.structs[idx]
    }

    /// The value of compile-time constant `name`.
    pub fn const_value(&self, name: &str) -> Option<i64> {
        self.consts.get(name).copied()
    }

    /// Registers a compile-time constant.
    pub fn insert_const(&mut self, name: String, value: i64) {
        self.consts.insert(name, value);
    }

    /// Evaluates `expr` as a compile-time integer constant.
    ///
    /// Supports integer literals, `const` names, unary minus, and
    /// `+ - * / %` with constant operands.
    ///
    /// # Errors
    ///
    /// Returns an error if the expression is not compile-time constant.
    pub fn eval_const(&self, expr: &Expr) -> Result<i64, CompileError> {
        let p = expr.pos();
        let err = |msg: String| CompileError::new(msg, p.line, p.col);
        match expr {
            Expr::IntLit(v, _) => Ok(*v),
            Expr::BoolLit(b, _) => Ok(*b as i64),
            Expr::Var(name, _) => self
                .const_value(name)
                .ok_or_else(|| err(format!("`{name}` is not a compile-time constant"))),
            Expr::Un {
                op: UnKind::Neg,
                expr,
                ..
            } => Ok(-self.eval_const(expr)?),
            Expr::Bin { op, lhs, rhs, .. } => {
                let a = self.eval_const(lhs)?;
                let b = self.eval_const(rhs)?;
                Ok(match op {
                    BinKind::Add => a + b,
                    BinKind::Sub => a - b,
                    BinKind::Mul => a * b,
                    BinKind::Div => {
                        if b == 0 {
                            return Err(err("constant division by zero".into()));
                        }
                        a / b
                    }
                    BinKind::Rem => {
                        if b == 0 {
                            return Err(err("constant remainder by zero".into()));
                        }
                        a % b
                    }
                    _ => return Err(err("non-arithmetic operator in constant".into())),
                })
            }
            _ => Err(err("expression is not compile-time constant".into())),
        }
    }

    /// Evaluates `expr` as a positive array extent.
    ///
    /// # Errors
    ///
    /// Returns an error if the value is not a positive constant.
    pub fn eval_const_usize(&self, expr: &Expr) -> Result<u64, CompileError> {
        let v = self.eval_const(expr)?;
        if v <= 0 {
            let p = expr.pos();
            return Err(CompileError::new(
                format!("array extent must be positive, got {v}"),
                p.line,
                p.col,
            ));
        }
        Ok(v as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{FieldDecl, Pos};

    fn fd(ty: TypeExpr, name: &str, dims: Vec<Expr>) -> FieldDecl {
        FieldDecl {
            ty,
            name: name.into(),
            dims,
            pos: Pos::default(),
        }
    }

    #[test]
    fn complex_struct_layout() {
        // struct complex { double r; double i; } — the milc element type.
        let decl = StructDecl {
            name: "complex".into(),
            fields: vec![
                fd(TypeExpr::Double, "r", vec![]),
                fd(TypeExpr::Double, "i", vec![]),
            ],
            pos: Pos::default(),
        };
        let table = TypeTable::build(&[decl], HashMap::new()).unwrap();
        let layout = table.struct_layout(0);
        assert_eq!(layout.size, 16);
        assert_eq!(layout.align, 8);
        assert_eq!(layout.field("i").unwrap().2, 8);
    }

    #[test]
    fn nested_struct_and_array_field() {
        // struct su3_matrix { complex e[3][3]; } — 3*3*16 = 144 bytes.
        let complex = StructDecl {
            name: "complex".into(),
            fields: vec![
                fd(TypeExpr::Double, "r", vec![]),
                fd(TypeExpr::Double, "i", vec![]),
            ],
            pos: Pos::default(),
        };
        let matrix = StructDecl {
            name: "su3_matrix".into(),
            fields: vec![fd(
                TypeExpr::Struct("complex".into()),
                "e",
                vec![
                    Expr::IntLit(3, Pos::default()),
                    Expr::IntLit(3, Pos::default()),
                ],
            )],
            pos: Pos::default(),
        };
        let table = TypeTable::build(&[complex, matrix], HashMap::new()).unwrap();
        assert_eq!(table.struct_layout(1).size, 144);
    }

    #[test]
    fn f32_field_packing() {
        // struct { float x; float y; } is 8 bytes, align 4.
        let decl = StructDecl {
            name: "pt".into(),
            fields: vec![
                fd(TypeExpr::Float, "x", vec![]),
                fd(TypeExpr::Float, "y", vec![]),
            ],
            pos: Pos::default(),
        };
        let table = TypeTable::build(&[decl], HashMap::new()).unwrap();
        assert_eq!(table.struct_layout(0).size, 8);
        assert_eq!(table.struct_layout(0).align, 4);
        assert_eq!(table.struct_layout(0).field("y").unwrap().2, 4);
    }

    #[test]
    fn mixed_alignment_padding() {
        // struct { float x; double d; } -> x at 0, d at 8, size 16.
        let decl = StructDecl {
            name: "m".into(),
            fields: vec![
                fd(TypeExpr::Float, "x", vec![]),
                fd(TypeExpr::Double, "d", vec![]),
            ],
            pos: Pos::default(),
        };
        let table = TypeTable::build(&[decl], HashMap::new()).unwrap();
        let layout = table.struct_layout(0);
        assert_eq!(layout.field("d").unwrap().2, 8);
        assert_eq!(layout.size, 16);
    }

    #[test]
    fn const_folding() {
        let mut table = TypeTable::default();
        table.insert_const("N".into(), 8);
        let p = Pos::default();
        // N * 2 + 1
        let e = Expr::Bin {
            op: BinKind::Add,
            lhs: Box::new(Expr::Bin {
                op: BinKind::Mul,
                lhs: Box::new(Expr::Var("N".into(), p)),
                rhs: Box::new(Expr::IntLit(2, p)),
                pos: p,
            }),
            rhs: Box::new(Expr::IntLit(1, p)),
            pos: p,
        };
        assert_eq!(table.eval_const(&e).unwrap(), 17);
    }

    #[test]
    fn const_rejects_nonconst() {
        let table = TypeTable::default();
        let p = Pos::default();
        assert!(table.eval_const(&Expr::Var("x".into(), p)).is_err());
        assert!(table.eval_const_usize(&Expr::IntLit(0, p)).is_err());
    }

    #[test]
    fn duplicate_struct_rejected() {
        let d = StructDecl {
            name: "s".into(),
            fields: vec![fd(TypeExpr::Int, "a", vec![])],
            pos: Pos::default(),
        };
        assert!(TypeTable::build(&[d.clone(), d], HashMap::new()).is_err());
    }

    #[test]
    fn array_size() {
        let table = TypeTable::default();
        let ty = Ty::Array {
            elem: Box::new(Ty::F64),
            dims: vec![4, 5],
        };
        assert_eq!(table.size_align(&ty).unwrap(), (160, 8));
    }
}
