//! Abstract syntax tree for Kern.

/// Source position (1-based line/column) attached to AST nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl Pos {
    /// Creates a position.
    pub fn new(line: u32, col: u32) -> Self {
        Pos { line, col }
    }
}

/// A surface-syntax type expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeExpr {
    /// `int`
    Int,
    /// `bool`
    Bool,
    /// `float`
    Float,
    /// `double`
    Double,
    /// `void`
    Void,
    /// `struct name` (or just `name` after a struct declaration)
    Struct(String),
    /// `T*`
    Ptr(Box<TypeExpr>),
}

/// A whole translation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Struct declarations in source order.
    pub structs: Vec<StructDecl>,
    /// `const int N = ...;` compile-time constants.
    pub consts: Vec<ConstDecl>,
    /// Global variable declarations.
    pub globals: Vec<GlobalDecl>,
    /// Function definitions.
    pub funcs: Vec<FuncDecl>,
}

/// `struct name { fields };`
#[derive(Debug, Clone, PartialEq)]
pub struct StructDecl {
    /// Struct name.
    pub name: String,
    /// Fields in declaration order: `(type, name, array dims)`.
    pub fields: Vec<FieldDecl>,
    /// Source position.
    pub pos: Pos,
}

/// One field of a struct.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Element type.
    pub ty: TypeExpr,
    /// Field name.
    pub name: String,
    /// Array dimensions (constant expressions), empty for scalars.
    pub dims: Vec<Expr>,
    /// Source position.
    pub pos: Pos,
}

/// `const int N = 64;`
#[derive(Debug, Clone, PartialEq)]
pub struct ConstDecl {
    /// Constant name.
    pub name: String,
    /// Initializer (must fold to an integer constant).
    pub value: Expr,
    /// Source position.
    pub pos: Pos,
}

/// A global variable: `double A[N][N];`
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDecl {
    /// Element type.
    pub ty: TypeExpr,
    /// Variable name.
    pub name: String,
    /// Array dimensions (constant expressions), empty for scalars.
    pub dims: Vec<Expr>,
    /// Optional scalar initializer (constant expression).
    pub init: Option<Expr>,
    /// Source position.
    pub pos: Pos,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDecl {
    /// Return type (`void` allowed).
    pub ret: TypeExpr,
    /// Function name.
    pub name: String,
    /// Parameters.
    pub params: Vec<ParamDecl>,
    /// Body.
    pub body: Vec<Stmt>,
    /// Source position.
    pub pos: Pos,
}

/// One function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl {
    /// Declared type (arrays decay to pointers; dims recorded below).
    pub ty: TypeExpr,
    /// Parameter name.
    pub name: String,
    /// Array shape for decayed array parameters: `dims[0]` may be `None`
    /// (unknown major extent, e.g. `double a[][N]`), the rest are constant
    /// expressions.
    pub dims: Vec<Option<Expr>>,
    /// Source position.
    pub pos: Pos,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Local declaration `T x[dims] = init;`
    Local {
        /// Element type.
        ty: TypeExpr,
        /// Variable name.
        name: String,
        /// Array dimensions (constant expressions).
        dims: Vec<Expr>,
        /// Optional scalar initializer.
        init: Option<Expr>,
        /// Source position.
        pos: Pos,
    },
    /// `lhs = rhs;` or compound assignment (`op` is the arithmetic op).
    Assign {
        /// Assignment target (an lvalue expression).
        lhs: Expr,
        /// Compound operation, if any (`+=` carries `BinKind::Add`).
        op: Option<BinKind>,
        /// Right-hand side.
        rhs: Expr,
        /// Source position.
        pos: Pos,
    },
    /// `x++;` / `x--;` (also usable as a `for` step).
    IncDec {
        /// Target lvalue.
        target: Expr,
        /// `true` for `++`.
        inc: bool,
        /// Source position.
        pos: Pos,
    },
    /// Expression statement (e.g. a call).
    Expr(Expr),
    /// `if (cond) then else else_`
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then_body: Vec<Stmt>,
        /// Else-branch (empty if absent).
        else_body: Vec<Stmt>,
        /// Source position.
        pos: Pos,
    },
    /// `while (cond) body`
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
        /// Source position.
        pos: Pos,
    },
    /// `for (init; cond; step) body`
    For {
        /// Initializer (at most one statement).
        init: Option<Box<Stmt>>,
        /// Condition (absent means `true`).
        cond: Option<Expr>,
        /// Step (at most one statement).
        step: Option<Box<Stmt>>,
        /// Body.
        body: Vec<Stmt>,
        /// Source position.
        pos: Pos,
    },
    /// `return expr;`
    Return(Option<Expr>, Pos),
    /// `break;`
    Break(Pos),
    /// `continue;`
    Continue(Pos),
    /// `{ ... }`
    Block(Vec<Stmt>),
}

/// Binary operator kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    And,
    /// `||` (short-circuit)
    Or,
}

/// Unary operator kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnKind {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
    /// Pointer dereference.
    Deref,
    /// Address-of.
    AddrOf,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64, Pos),
    /// Float literal.
    FloatLit(f64, Pos),
    /// `true` / `false`.
    BoolLit(bool, Pos),
    /// Variable reference.
    Var(String, Pos),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinKind,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source position.
        pos: Pos,
    },
    /// Unary operation.
    Un {
        /// Operator.
        op: UnKind,
        /// Operand.
        expr: Box<Expr>,
        /// Source position.
        pos: Pos,
    },
    /// Indexing `base[idx]`.
    Index {
        /// Array or pointer expression.
        base: Box<Expr>,
        /// Index expression.
        idx: Box<Expr>,
        /// Source position.
        pos: Pos,
    },
    /// Member access `base.field` (`arrow` distinguishes `->`).
    Member {
        /// Struct (or struct pointer) expression.
        base: Box<Expr>,
        /// Field name.
        field: String,
        /// `true` for `->`.
        arrow: bool,
        /// Source position.
        pos: Pos,
    },
    /// Function or builtin call.
    Call {
        /// Callee name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Source position.
        pos: Pos,
    },
    /// Explicit cast `(T)expr`.
    Cast {
        /// Target type.
        ty: TypeExpr,
        /// Operand.
        expr: Box<Expr>,
        /// Source position.
        pos: Pos,
    },
}

impl Expr {
    /// The source position of the expression.
    pub fn pos(&self) -> Pos {
        match self {
            Expr::IntLit(_, p) | Expr::FloatLit(_, p) | Expr::BoolLit(_, p) | Expr::Var(_, p) => *p,
            Expr::Bin { pos, .. }
            | Expr::Un { pos, .. }
            | Expr::Index { pos, .. }
            | Expr::Member { pos, .. }
            | Expr::Call { pos, .. }
            | Expr::Cast { pos, .. } => *pos,
        }
    }
}

/// The source position of a statement.
pub fn stmt_pos(stmt: &Stmt) -> Pos {
    match stmt {
        Stmt::Local { pos, .. }
        | Stmt::Assign { pos, .. }
        | Stmt::IncDec { pos, .. }
        | Stmt::If { pos, .. }
        | Stmt::While { pos, .. }
        | Stmt::For { pos, .. } => *pos,
        Stmt::Return(_, pos) | Stmt::Break(pos) | Stmt::Continue(pos) => *pos,
        Stmt::Expr(e) => e.pos(),
        Stmt::Block(stmts) => stmts.first().map(stmt_pos).unwrap_or_default(),
    }
}
