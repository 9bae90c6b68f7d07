//! Abstract syntax for Smalltalk-80 methods.

/// Smallest SmallInteger value (−2⁶²), the same bound as the object
/// memory's `Oop::MIN_SMALL_INT`.
pub const MIN_SMALL_INT: i64 = -(1 << 62);
/// Largest SmallInteger value (2⁶² − 1), the same bound as the object
/// memory's `Oop::MAX_SMALL_INT`.
pub const MAX_SMALL_INT: i64 = (1 << 62) - 1;

/// A literal value, in compiler-neutral form (no object memory involved —
/// the image layer converts literals to oops at installation time).
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// SmallInteger, in `MIN_SMALL_INT..=MAX_SMALL_INT` (the parser rejects
    /// a literal outside it: there are no LargeIntegers to compile it to).
    Int(i64),
    /// Float.
    Float(f64),
    /// Character.
    Char(u8),
    /// String.
    Str(String),
    /// Symbol (also used for selectors in literal frames).
    Symbol(String),
    /// Literal array `#(...)`.
    Array(Vec<Literal>),
    /// Literal byte array `#[...]`.
    ByteArray(Vec<u8>),
    /// `true`.
    True,
    /// `false`.
    False,
    /// `nil`.
    Nil,
}

/// Pseudo-variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pseudo {
    /// `self`
    SelfVar,
    /// `true`
    True,
    /// `false`
    False,
    /// `nil`
    Nil,
    /// `thisContext`
    ThisContext,
}

/// One message of a cascade.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Full selector.
    pub selector: String,
    /// Argument expressions.
    pub args: Vec<Expr>,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A named variable (temp, instance variable, or global — resolved at
    /// code-generation time).
    Var(String),
    /// A pseudo-variable.
    Pseudo(Pseudo),
    /// A literal.
    Literal(Literal),
    /// Assignment `name := value`.
    Assign(String, Box<Expr>),
    /// A message send.
    Send {
        /// Receiver expression.
        receiver: Box<Expr>,
        /// Full selector.
        selector: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Whether lookup starts in the superclass (`super foo`).
        is_super: bool,
    },
    /// A cascade `recv m1; m2; m3` — `receiver` is evaluated once and each
    /// message is sent to it; the value is the last send's value.
    Cascade {
        /// The common receiver.
        receiver: Box<Expr>,
        /// At least two messages.
        messages: Vec<Message>,
    },
    /// A block `[:a | stmts]`.
    Block {
        /// Argument names.
        args: Vec<String>,
        /// Block-local temporaries (compiled into the home method's frame,
        /// as in Smalltalk-80 — blocks are not closures).
        temps: Vec<String>,
        /// Body.
        body: Vec<Stmt>,
    },
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Expression evaluated for effect (or as a trailing block value).
    Expr(Expr),
    /// `^ expr` — return from the home method.
    Return(Expr),
}

/// A parsed method.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodNode {
    /// Full selector.
    pub selector: String,
    /// Argument names (one per selector segment for keyword messages).
    pub args: Vec<String>,
    /// Declared temporaries.
    pub temps: Vec<String>,
    /// Primitive number from a `<primitive: n>` pragma, or 0.
    pub primitive: u16,
    /// Body statements.
    pub body: Vec<Stmt>,
}

impl MethodNode {
    /// Whether the method body is empty (answer self).
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_equality() {
        assert_eq!(Literal::Int(3), Literal::Int(3));
        assert_ne!(Literal::Int(3), Literal::Float(3.0));
        assert_eq!(
            Literal::Array(vec![Literal::Nil, Literal::True]),
            Literal::Array(vec![Literal::Nil, Literal::True])
        );
    }

    #[test]
    fn empty_method() {
        let m = MethodNode {
            selector: "yourself".into(),
            args: vec![],
            temps: vec![],
            primitive: 0,
            body: vec![],
        };
        assert!(m.is_empty());
    }
}
