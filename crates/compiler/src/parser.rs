//! Recursive-descent parser for Smalltalk-80 methods and expressions.

use crate::ast::{Expr, Literal, Message, MethodNode, Pseudo, Stmt, MAX_SMALL_INT, MIN_SMALL_INT};
use crate::error::CompileError;
use crate::token::{lex, SpannedTok, Tok};

/// Parses a complete method (pattern, pragma, temporaries, body).
pub fn parse_method(src: &str) -> Result<MethodNode, CompileError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let m = p.method()?;
    p.expect_eof()?;
    Ok(m)
}

/// Parses an expression sequence (a "doit"): optional temporaries followed
/// by statements, with the last statement's value as the result.
pub fn parse_doit(src: &str) -> Result<(Vec<String>, Vec<Stmt>), CompileError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let (temps, mut body) = p.temps_and_statements()?;
    p.expect_eof()?;
    // Make the last statement produce the doit's value.
    if let Some(Stmt::Expr(_)) = body.last() {
        if let Some(Stmt::Expr(e)) = body.pop() {
            body.push(Stmt::Return(e));
        }
    }
    Ok((temps, body))
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn offset(&self) -> usize {
        self.toks[self.pos].offset
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, CompileError> {
        Err(CompileError::new(self.offset(), msg))
    }

    fn expect_eof(&self) -> Result<(), CompileError> {
        if *self.peek() == Tok::Eof {
            Ok(())
        } else {
            self.err(format!("unexpected trailing input: {:?}", self.peek()))
        }
    }

    // --- method structure -------------------------------------------------

    fn method(&mut self) -> Result<MethodNode, CompileError> {
        let (selector, args) = self.pattern()?;
        let primitive = self.pragma()?;
        let (temps, body) = self.temps_and_statements()?;
        Ok(MethodNode {
            selector,
            args,
            temps,
            primitive,
            body,
        })
    }

    fn pattern(&mut self) -> Result<(String, Vec<String>), CompileError> {
        match self.bump() {
            Tok::Ident(name) => Ok((name, vec![])),
            Tok::BinOp(op) => {
                let arg = self.ident("binary selector needs an argument name")?;
                Ok((op, vec![arg]))
            }
            Tok::Pipe => {
                let arg = self.ident("binary selector needs an argument name")?;
                Ok(("|".into(), vec![arg]))
            }
            Tok::Keyword(first) => {
                let mut selector = first;
                let mut args = vec![self.ident("keyword selector needs an argument name")?];
                while let Tok::Keyword(k) = self.peek().clone() {
                    self.bump();
                    selector.push_str(&k);
                    args.push(self.ident("keyword selector needs an argument name")?);
                }
                Ok((selector, args))
            }
            other => Err(CompileError::new(
                self.offset(),
                format!("expected a method pattern, found {other:?}"),
            )),
        }
    }

    fn ident(&mut self, msg: &str) -> Result<String, CompileError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            _ => self.err(msg),
        }
    }

    fn pragma(&mut self) -> Result<u16, CompileError> {
        // <primitive: 75>
        if *self.peek() == Tok::BinOp("<".into())
            && *self.peek2() == Tok::Keyword("primitive:".into())
        {
            self.bump();
            self.bump();
            let n = match self.bump() {
                Tok::IntLit(n) if (0..=4095).contains(&n) => n as u16,
                _ => return self.err("primitive number expected"),
            };
            if self.bump() != Tok::BinOp(">".into()) {
                return self.err("expected > to close primitive pragma");
            }
            return Ok(n);
        }
        Ok(0)
    }

    fn temps_and_statements(&mut self) -> Result<(Vec<String>, Vec<Stmt>), CompileError> {
        let mut temps = Vec::new();
        if *self.peek() == Tok::Pipe {
            self.bump();
            while let Tok::Ident(name) = self.peek().clone() {
                self.bump();
                temps.push(name);
            }
            if self.bump() != Tok::Pipe {
                return self.err("expected | to close temporaries");
            }
        }
        let body = self.statements(&Tok::Eof)?;
        Ok((temps, body))
    }

    /// Parses statements until `closer` (Eof or RBracket), not consuming it.
    fn statements(&mut self, closer: &Tok) -> Result<Vec<Stmt>, CompileError> {
        let mut out = Vec::new();
        loop {
            if self.peek() == closer {
                break;
            }
            if *self.peek() == Tok::Caret {
                self.bump();
                let e = self.expression()?;
                out.push(Stmt::Return(e));
                if *self.peek() == Tok::Dot {
                    self.bump();
                }
                if self.peek() != closer {
                    return self.err("statements after a return");
                }
                break;
            }
            let e = self.expression()?;
            out.push(Stmt::Expr(e));
            if *self.peek() == Tok::Dot {
                self.bump();
            } else {
                if self.peek() != closer {
                    return self.err(format!(
                        "expected '.' or end of body, found {:?}",
                        self.peek()
                    ));
                }
                break;
            }
        }
        Ok(out)
    }

    // --- expressions -------------------------------------------------------

    fn expression(&mut self) -> Result<Expr, CompileError> {
        // Assignment: ident := expr
        if let Tok::Ident(name) = self.peek().clone() {
            if *self.peek2() == Tok::Assign {
                self.bump();
                self.bump();
                let value = self.expression()?;
                return Ok(Expr::Assign(name, Box::new(value)));
            }
        }
        self.cascade()
    }

    fn cascade(&mut self) -> Result<Expr, CompileError> {
        let e = self.keyword_expr()?;
        if *self.peek() != Tok::Semi {
            return Ok(e);
        }
        // Split the last message off `e`; the cascade receiver is its
        // receiver, and that message becomes the first of the cascade.
        let (receiver, first) = match e {
            Expr::Send {
                receiver,
                selector,
                args,
                is_super: false,
            } => (receiver, Message { selector, args }),
            _ => return self.err("cascade must follow a message send"),
        };
        let mut messages = vec![first];
        while *self.peek() == Tok::Semi {
            self.bump();
            messages.push(self.cascade_message()?);
        }
        Ok(Expr::Cascade { receiver, messages })
    }

    fn cascade_message(&mut self) -> Result<Message, CompileError> {
        match self.peek().clone() {
            Tok::Ident(sel) => {
                self.bump();
                Ok(Message {
                    selector: sel,
                    args: vec![],
                })
            }
            Tok::BinOp(op) => {
                self.bump();
                let arg = self.unary_expr()?;
                Ok(Message {
                    selector: op,
                    args: vec![arg],
                })
            }
            Tok::Pipe => {
                self.bump();
                let arg = self.unary_expr()?;
                Ok(Message {
                    selector: "|".into(),
                    args: vec![arg],
                })
            }
            Tok::Keyword(_) => {
                let mut selector = String::new();
                let mut args = Vec::new();
                while let Tok::Keyword(k) = self.peek().clone() {
                    self.bump();
                    selector.push_str(&k);
                    args.push(self.binary_expr()?);
                }
                Ok(Message { selector, args })
            }
            other => self.err(format!("expected a cascade message, found {other:?}")),
        }
    }

    fn keyword_expr(&mut self) -> Result<Expr, CompileError> {
        let receiver = self.binary_expr()?;
        if let Tok::Keyword(_) = self.peek() {
            let is_super = matches!(&receiver, Expr::Var(v) if v == "super");
            let receiver = if is_super {
                Expr::Pseudo(Pseudo::SelfVar)
            } else {
                receiver
            };
            let mut selector = String::new();
            let mut args = Vec::new();
            while let Tok::Keyword(k) = self.peek().clone() {
                self.bump();
                selector.push_str(&k);
                args.push(self.binary_expr()?);
            }
            return Ok(Expr::Send {
                receiver: Box::new(receiver),
                selector,
                args,
                is_super,
            });
        }
        Ok(receiver)
    }

    fn binary_expr(&mut self) -> Result<Expr, CompileError> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek().clone() {
                Tok::BinOp(op) => op,
                Tok::Pipe => "|".to_string(),
                _ => break,
            };
            self.bump();
            let is_super = matches!(&left, Expr::Var(v) if v == "super");
            let receiver = if is_super {
                Expr::Pseudo(Pseudo::SelfVar)
            } else {
                left
            };
            let right = self.unary_expr()?;
            left = Expr::Send {
                receiver: Box::new(receiver),
                selector: op,
                args: vec![right],
                is_super,
            };
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr, CompileError> {
        let mut e = self.primary()?;
        while let Tok::Ident(sel) = self.peek().clone() {
            // `x foo := 1` never parses here because Assign is handled above.
            self.bump();
            let is_super = matches!(&e, Expr::Var(v) if v == "super");
            let receiver = if is_super {
                Expr::Pseudo(Pseudo::SelfVar)
            } else {
                e
            };
            e = Expr::Send {
                receiver: Box::new(receiver),
                selector: sel,
                args: vec![],
                is_super,
            };
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        let at = self.offset();
        match self.bump() {
            Tok::Ident(name) => Ok(match name.as_str() {
                "self" => Expr::Pseudo(Pseudo::SelfVar),
                "true" => Expr::Pseudo(Pseudo::True),
                "false" => Expr::Pseudo(Pseudo::False),
                "nil" => Expr::Pseudo(Pseudo::Nil),
                "thisContext" => Expr::Pseudo(Pseudo::ThisContext),
                _ => Expr::Var(name),
            }),
            Tok::IntLit(v) => small_int(at, v).map(Expr::Literal),
            Tok::FloatLit(v) => Ok(Expr::Literal(Literal::Float(v))),
            Tok::CharLit(c) => Ok(Expr::Literal(Literal::Char(c))),
            Tok::StrLit(s) => Ok(Expr::Literal(Literal::Str(s))),
            Tok::SymLit(s) => Ok(Expr::Literal(Literal::Symbol(s))),
            Tok::BinOp(op) if op == "-" => {
                // Negative numeric literal.
                match self.bump() {
                    Tok::IntLit(v) => small_int(at, -v).map(Expr::Literal),
                    Tok::FloatLit(v) => Ok(Expr::Literal(Literal::Float(-v))),
                    _ => self.err("expected a number after unary minus"),
                }
            }
            Tok::LParen => {
                let e = self.expression()?;
                if self.bump() != Tok::RParen {
                    return self.err("expected )");
                }
                Ok(e)
            }
            Tok::LBracket => self.block(),
            Tok::HashParen => {
                let lit = self.literal_array()?;
                Ok(Expr::Literal(lit))
            }
            Tok::HashBracket => {
                let mut bytes = Vec::new();
                loop {
                    match self.bump() {
                        Tok::RBracket => break,
                        Tok::IntLit(v) if (0..=255).contains(&v) => bytes.push(v as u8),
                        _ => return self.err("byte arrays contain integers 0..255"),
                    }
                }
                Ok(Expr::Literal(Literal::ByteArray(bytes)))
            }
            other => Err(CompileError::new(
                self.offset(),
                format!("expected an expression, found {other:?}"),
            )),
        }
    }

    fn block(&mut self) -> Result<Expr, CompileError> {
        let mut args = Vec::new();
        while let Tok::BlockArg(name) = self.peek().clone() {
            self.bump();
            args.push(name);
        }
        let mut temps = Vec::new();
        if !args.is_empty() {
            if self.bump() != Tok::Pipe {
                return self.err("expected | after block arguments");
            }
            // An immediately following second `|` opens block temporaries.
            if *self.peek() == Tok::Pipe {
                self.bump();
                while let Tok::Ident(name) = self.peek().clone() {
                    self.bump();
                    temps.push(name);
                }
                if self.bump() != Tok::Pipe {
                    return self.err("expected | to close block temporaries");
                }
            }
        } else if *self.peek() == Tok::Pipe {
            // `[| t | ...]` — temps without args: need lookahead to
            // distinguish from `[:a | a | b]`-style bodies starting with a
            // Pipe binary send (which cannot start a statement anyway).
            self.bump();
            while let Tok::Ident(name) = self.peek().clone() {
                self.bump();
                temps.push(name);
            }
            if self.bump() != Tok::Pipe {
                return self.err("expected | to close block temporaries");
            }
        }
        let body = self.statements(&Tok::RBracket)?;
        if self.bump() != Tok::RBracket {
            return self.err("expected ] to close block");
        }
        Ok(Expr::Block { args, temps, body })
    }

    fn literal_array(&mut self) -> Result<Literal, CompileError> {
        let mut items = Vec::new();
        loop {
            let at = self.offset();
            match self.bump() {
                Tok::RParen => break,
                Tok::IntLit(v) => items.push(small_int(at, v)?),
                Tok::FloatLit(v) => items.push(Literal::Float(v)),
                Tok::CharLit(c) => items.push(Literal::Char(c)),
                Tok::StrLit(s) => items.push(Literal::Str(s)),
                Tok::SymLit(s) => items.push(Literal::Symbol(s)),
                Tok::Keyword(k) => {
                    // Bare keywords (and runs of them) are symbols in arrays.
                    let mut s = k;
                    while let Tok::Keyword(k2) = self.peek().clone() {
                        self.bump();
                        s.push_str(&k2);
                    }
                    items.push(Literal::Symbol(s));
                }
                Tok::Ident(name) => items.push(match name.as_str() {
                    "true" => Literal::True,
                    "false" => Literal::False,
                    "nil" => Literal::Nil,
                    _ => Literal::Symbol(name),
                }),
                Tok::BinOp(op) => {
                    if op == "-" {
                        match self.bump() {
                            Tok::IntLit(v) => items.push(small_int(at, -v)?),
                            Tok::FloatLit(v) => items.push(Literal::Float(-v)),
                            _ => return self.err("expected a number after - in array"),
                        }
                    } else {
                        items.push(Literal::Symbol(op));
                    }
                }
                Tok::Pipe => items.push(Literal::Symbol("|".into())),
                Tok::LParen | Tok::HashParen => items.push(self.literal_array()?),
                Tok::HashBracket => {
                    let mut bytes = Vec::new();
                    loop {
                        match self.bump() {
                            Tok::RBracket => break,
                            Tok::IntLit(v) if (0..=255).contains(&v) => bytes.push(v as u8),
                            _ => return self.err("byte arrays contain integers 0..255"),
                        }
                    }
                    items.push(Literal::ByteArray(bytes));
                }
                other => {
                    return Err(CompileError::new(
                        self.offset(),
                        format!("unexpected {other:?} in literal array"),
                    ))
                }
            }
        }
        Ok(Literal::Array(items))
    }
}

/// `Literal::Int(v)` when `v` (already negated, so `-2⁶²` is legal) is a
/// SmallInteger; otherwise an error at `at`, since there is no
/// LargeInteger to compile the literal to.
fn small_int(at: usize, v: i64) -> Result<Literal, CompileError> {
    if (MIN_SMALL_INT..=MAX_SMALL_INT).contains(&v) {
        Ok(Literal::Int(v))
    } else {
        Err(CompileError::new(
            at,
            format!("integer literal {v} is outside the SmallInteger range"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn method(src: &str) -> MethodNode {
        parse_method(src).unwrap()
    }

    #[test]
    fn unary_pattern() {
        let m = method("yourself ^self");
        assert_eq!(m.selector, "yourself");
        assert!(m.args.is_empty());
        assert_eq!(m.body, vec![Stmt::Return(Expr::Pseudo(Pseudo::SelfVar))]);
    }

    #[test]
    fn binary_pattern() {
        let m = method("+ aNumber ^aNumber");
        assert_eq!(m.selector, "+");
        assert_eq!(m.args, vec!["aNumber"]);
    }

    #[test]
    fn keyword_pattern_with_temps_and_primitive() {
        let m = method("at: i put: v <primitive: 61> | t | t := v. ^t");
        assert_eq!(m.selector, "at:put:");
        assert_eq!(m.args, vec!["i", "v"]);
        assert_eq!(m.temps, vec!["t"]);
        assert_eq!(m.primitive, 61);
        assert_eq!(m.body.len(), 2);
    }

    #[test]
    fn precedence_unary_binary_keyword() {
        // a foo + b bar at: c baz  ==  ((a foo) + (b bar)) at: (c baz)
        let m = method("m ^a foo + b bar at: c baz");
        let Stmt::Return(Expr::Send {
            receiver,
            selector,
            args,
            ..
        }) = &m.body[0]
        else {
            panic!("expected return of keyword send");
        };
        assert_eq!(selector, "at:");
        assert!(matches!(&**receiver, Expr::Send { selector, .. } if selector == "+"));
        assert!(matches!(&args[0], Expr::Send { selector, .. } if selector == "baz"));
    }

    #[test]
    fn binary_is_left_associative() {
        let m = method("m ^1 + 2 * 3");
        let Stmt::Return(Expr::Send {
            receiver, selector, ..
        }) = &m.body[0]
        else {
            panic!()
        };
        assert_eq!(selector, "*");
        assert!(matches!(&**receiver, Expr::Send { selector, .. } if selector == "+"));
    }

    #[test]
    fn cascade_splits_receiver() {
        let m = method("m aStream nextPutAll: 'x'; tab; nextPut: $y");
        let Stmt::Expr(Expr::Cascade { receiver, messages }) = &m.body[0] else {
            panic!("expected cascade")
        };
        assert!(matches!(&**receiver, Expr::Var(v) if v == "aStream"));
        let sels: Vec<_> = messages.iter().map(|m| m.selector.as_str()).collect();
        assert_eq!(sels, vec!["nextPutAll:", "tab", "nextPut:"]);
    }

    #[test]
    fn blocks_with_args_and_temps() {
        let m = method("m ^[:a :b | | t | t := a. t + b]");
        let Stmt::Return(Expr::Block { args, temps, body }) = &m.body[0] else {
            panic!()
        };
        assert_eq!(args, &["a", "b"]);
        assert_eq!(temps, &["t"]);
        assert_eq!(body.len(), 2);
    }

    #[test]
    fn block_temps_without_args() {
        let m = method("m ^[| t | t := 1. t]");
        let Stmt::Return(Expr::Block { args, temps, .. }) = &m.body[0] else {
            panic!()
        };
        assert!(args.is_empty());
        assert_eq!(temps, &["t"]);
    }

    #[test]
    fn super_sends() {
        let m = method("initialize super initialize. ^super size + 1");
        let Stmt::Expr(Expr::Send { is_super, .. }) = &m.body[0] else {
            panic!()
        };
        assert!(is_super);
    }

    #[test]
    fn negative_literals() {
        let m = method("m ^-3 + -2.5");
        let Stmt::Return(Expr::Send { receiver, args, .. }) = &m.body[0] else {
            panic!()
        };
        assert_eq!(**receiver, Expr::Literal(Literal::Int(-3)));
        assert_eq!(args[0], Expr::Literal(Literal::Float(-2.5)));
    }

    #[test]
    fn integer_literals_stop_at_the_small_integer_bounds() {
        let parses = |src: &str| parse_doit(src).map(|(_, body)| body);
        let value = |src: &str| match &parses(src).unwrap()[..] {
            [Stmt::Return(Expr::Literal(lit))] => lit.clone(),
            other => panic!("{src}: {other:?}"),
        };
        // Decimal, radix and negated forms of both bounds.
        for (src, v) in [
            ("4611686018427387903", MAX_SMALL_INT),
            ("-4611686018427387904", MIN_SMALL_INT),
            ("16r3FFFFFFFFFFFFFFF", MAX_SMALL_INT),
            ("-16r4000000000000000", MIN_SMALL_INT),
            (
                "2r11111111111111111111111111111111111111111111111111111111111111",
                MAX_SMALL_INT,
            ),
        ] {
            assert_eq!(value(src), Literal::Int(v), "{src}");
        }
        assert_eq!(
            value("#(4611686018427387903 -4611686018427387904)"),
            Literal::Array(vec![
                Literal::Int(MAX_SMALL_INT),
                Literal::Int(MIN_SMALL_INT)
            ])
        );
        // One past each bound, in every form and inside literal arrays.
        for src in [
            "4611686018427387904",
            "-4611686018427387905",
            "16r4000000000000000",
            "-16r4000000000000001",
            "2r100000000000000000000000000000000000000000000000000000000000000",
            "#(4611686018427387904)",
            "#(-4611686018427387905)",
            "#(1 (16r4000000000000000))",
            "3 + 4611686018427387904",
        ] {
            let err = parses(src).expect_err(src);
            assert!(
                err.to_string().contains("SmallInteger range"),
                "{src}: {err}"
            );
        }
    }

    #[test]
    fn literal_arrays_nest() {
        let m = method("m ^#(1 $a 'two' three four: (5 6) #[7 8] true nil)");
        let Stmt::Return(Expr::Literal(Literal::Array(items))) = &m.body[0] else {
            panic!()
        };
        assert_eq!(items[0], Literal::Int(1));
        assert_eq!(items[1], Literal::Char(b'a'));
        assert_eq!(items[2], Literal::Str("two".into()));
        assert_eq!(items[3], Literal::Symbol("three".into()));
        assert_eq!(items[4], Literal::Symbol("four:".into()));
        assert_eq!(
            items[5],
            Literal::Array(vec![Literal::Int(5), Literal::Int(6)])
        );
        assert_eq!(items[6], Literal::ByteArray(vec![7, 8]));
        assert_eq!(items[7], Literal::True);
        assert_eq!(items[8], Literal::Nil);
    }

    #[test]
    fn doit_returns_last_expression() {
        let (temps, body) = parse_doit("1 + 2. 3 + 4").unwrap();
        assert!(temps.is_empty());
        assert_eq!(body.len(), 2);
        assert!(matches!(body[1], Stmt::Return(_)));
    }

    #[test]
    fn doit_accepts_temporaries() {
        let (temps, body) = parse_doit("| a b | a := 1. b := 2. a + b").unwrap();
        assert_eq!(temps, vec!["a", "b"]);
        assert_eq!(body.len(), 3);
        assert!(matches!(body[2], Stmt::Return(_)));
    }

    #[test]
    fn statements_after_return_rejected() {
        assert!(parse_method("m ^1. 2").is_err());
    }

    #[test]
    fn pipe_as_binary_selector() {
        let m = method("m ^a | b");
        let Stmt::Return(Expr::Send { selector, .. }) = &m.body[0] else {
            panic!()
        };
        assert_eq!(selector, "|");
    }

    #[test]
    fn keyword_cascade_message() {
        let m = method("m d at: 1 put: 2; at: 3 put: 4");
        let Stmt::Expr(Expr::Cascade { messages, .. }) = &m.body[0] else {
            panic!()
        };
        assert_eq!(messages.len(), 2);
        assert_eq!(messages[1].selector, "at:put:");
        assert_eq!(messages[1].args.len(), 2);
    }

    #[test]
    fn parse_errors_have_offsets() {
        let err = parse_method("m ^)").unwrap_err();
        assert!(err.offset > 0);
        assert!(parse_method("at: ^1").is_err());
        assert!(parse_method("m [:a b]").is_err());
    }
}
