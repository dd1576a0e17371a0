//! Recursive-descent parser producing the [`ast`](crate::ast).

use crate::ast::*;
use crate::error::{LangError, Span};
use crate::token::{Keyword, Punct, Token, TokenKind};
use hps_ir::{BinOp, UnOp};

/// How deep source may nest. Each block, `else if`, expression (a whole
/// one, a parenthesised one, an argument or an index), unary operator and
/// each operator of a binary or postfix chain counts one level, so
/// `print(a + b + c)` nests three levels inside its block. The front end
/// and the passes after it recurse once per level; past this limit the
/// parser returns an error instead of overflowing the stack.
const MAX_NESTING: usize = 100;

/// Parses a token stream (as produced by [`lex`](crate::lexer::lex)) into an
/// AST.
///
/// # Errors
///
/// Returns a [`LangError`] describing the first syntax error, or source
/// nested deeper than the parser accepts (see `docs/LANGUAGE.md`).
pub fn parse_tokens(tokens: &[Token]) -> Result<AProgram, LangError> {
    Parser {
        tokens,
        pos: 0,
        depth: 0,
    }
    .program()
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Nesting level of the construct being parsed (see [`MAX_NESTING`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    /// Enters one more level of nesting. Callers restore `depth` when
    /// they finish; an error ends the parse, so they need not on error.
    fn descend(&mut self) -> Result<(), LangError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(LangError::parse(
                format!("source nests deeper than {MAX_NESTING} levels"),
                self.span(),
            ));
        }
        Ok(())
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) -> &Token {
        let t = &self.tokens[self.pos.min(self.tokens.len() - 1)];
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if *self.peek() == TokenKind::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if *self.peek() == TokenKind::Keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), LangError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(LangError::parse(
                format!("expected `{p}`, found {}", self.peek().describe()),
                self.span(),
            ))
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> Result<(), LangError> {
        if self.eat_keyword(k) {
            Ok(())
        } else {
            Err(LangError::parse(
                format!("expected `{k}`, found {}", self.peek().describe()),
                self.span(),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<String, LangError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(LangError::parse(
                format!("expected identifier, found {}", other.describe()),
                self.span(),
            )),
        }
    }

    /// Parses zero or more `@allow(lint_id, ...)` attributes, returning the
    /// collected lint ids.
    fn attrs(&mut self) -> Result<Vec<String>, LangError> {
        let mut allows = Vec::new();
        while self.eat_punct(Punct::At) {
            let span = self.span();
            let name = self.expect_ident()?;
            if name != "allow" {
                return Err(LangError::parse(
                    format!("unknown attribute `@{name}` (only `@allow(lint_id)` is supported)"),
                    span,
                ));
            }
            self.expect_punct(Punct::LParen)?;
            loop {
                allows.push(self.expect_ident()?);
                if self.eat_punct(Punct::RParen) {
                    break;
                }
                self.expect_punct(Punct::Comma)?;
            }
        }
        Ok(allows)
    }

    fn program(&mut self) -> Result<AProgram, LangError> {
        let mut prog = AProgram::default();
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Keyword(Keyword::Global) => prog.globals.push(self.global()?),
                TokenKind::Keyword(Keyword::Fn) => prog.funcs.push(self.function()?),
                TokenKind::Keyword(Keyword::Class) => prog.classes.push(self.class()?),
                TokenKind::Punct(Punct::At) => {
                    let allows = self.attrs()?;
                    if *self.peek() != TokenKind::Keyword(Keyword::Fn) {
                        return Err(LangError::parse(
                            "`@allow` attributes at top level must precede a `fn`",
                            self.span(),
                        ));
                    }
                    let mut f = self.function()?;
                    f.allows = allows;
                    prog.funcs.push(f);
                }
                other => {
                    return Err(LangError::parse(
                        format!(
                            "expected `global`, `fn` or `class` at top level, found {}",
                            other.describe()
                        ),
                        self.span(),
                    ))
                }
            }
        }
        Ok(prog)
    }

    fn global(&mut self) -> Result<AGlobal, LangError> {
        let span = self.span();
        self.expect_keyword(Keyword::Global)?;
        let name = self.expect_ident()?;
        self.expect_punct(Punct::Colon)?;
        let ty = self.ty()?;
        let mut init = None;
        let mut array_len = None;
        if self.eat_punct(Punct::Assign) {
            if self.eat_keyword(Keyword::New) {
                // new T[N] with a literal length
                let _elem = self.ty_base()?;
                self.expect_punct(Punct::LBracket)?;
                match self.peek().clone() {
                    TokenKind::Int(n) if n >= 0 => {
                        self.bump();
                        array_len = Some(n);
                    }
                    other => {
                        return Err(LangError::parse(
                            format!(
                            "global array length must be a non-negative integer literal, found {}",
                            other.describe()
                        ),
                            self.span(),
                        ))
                    }
                }
                self.expect_punct(Punct::RBracket)?;
            } else {
                init = Some(self.expr()?);
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(AGlobal {
            name,
            ty,
            init,
            array_len,
            span,
        })
    }

    fn class(&mut self) -> Result<AClass, LangError> {
        let span = self.span();
        self.expect_keyword(Keyword::Class)?;
        let name = self.expect_ident()?;
        self.expect_punct(Punct::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Punct(Punct::RBrace) => {
                    self.bump();
                    break;
                }
                TokenKind::Keyword(Keyword::Fn) => methods.push(self.function()?),
                TokenKind::Punct(Punct::At) => {
                    let allows = self.attrs()?;
                    if *self.peek() != TokenKind::Keyword(Keyword::Fn) {
                        return Err(LangError::parse(
                            "`@allow` attributes in a class body must precede a `fn`",
                            self.span(),
                        ));
                    }
                    let mut m = self.function()?;
                    m.allows = allows;
                    methods.push(m);
                }
                TokenKind::Ident(_) => {
                    let fspan = self.span();
                    let fname = self.expect_ident()?;
                    self.expect_punct(Punct::Colon)?;
                    let fty = self.ty()?;
                    self.expect_punct(Punct::Semi)?;
                    fields.push((fname, fty, fspan));
                }
                other => {
                    return Err(LangError::parse(
                        format!(
                            "expected field, method or `}}` in class body, found {}",
                            other.describe()
                        ),
                        self.span(),
                    ))
                }
            }
        }
        Ok(AClass {
            name,
            fields,
            methods,
            span,
        })
    }

    fn function(&mut self) -> Result<AFunc, LangError> {
        let span = self.span();
        self.expect_keyword(Keyword::Fn)?;
        let name = self.expect_ident()?;
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.eat_punct(Punct::RParen) {
            loop {
                let pspan = self.span();
                let pname = self.expect_ident()?;
                self.expect_punct(Punct::Colon)?;
                let pty = self.ty()?;
                params.push((pname, pty, pspan));
                if self.eat_punct(Punct::RParen) {
                    break;
                }
                self.expect_punct(Punct::Comma)?;
            }
        }
        let ret = if self.eat_punct(Punct::Arrow) {
            Some(self.ty()?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(AFunc {
            name,
            params,
            ret,
            body,
            span,
            allows: Vec::new(),
        })
    }

    fn ty_base(&mut self) -> Result<AType, LangError> {
        let name = self.expect_ident()?;
        Ok(match name.as_str() {
            "int" => AType::Int,
            "float" => AType::Float,
            "bool" => AType::Bool,
            _ => AType::Named(name),
        })
    }

    fn ty(&mut self) -> Result<AType, LangError> {
        let mut t = self.ty_base()?;
        while *self.peek() == TokenKind::Punct(Punct::LBracket) {
            self.bump();
            self.expect_punct(Punct::RBracket)?;
            t = AType::Array(Box::new(t));
        }
        Ok(t)
    }

    fn block(&mut self) -> Result<Vec<AStmt>, LangError> {
        self.expect_punct(Punct::LBrace)?;
        self.descend()?;
        let mut stmts = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            if *self.peek() == TokenKind::Eof {
                return Err(LangError::parse(
                    "unclosed block, expected `}`",
                    self.span(),
                ));
            }
            stmts.push(self.stmt()?);
        }
        self.depth -= 1;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<AStmt, LangError> {
        let allows = self.attrs()?;
        let mut s = self.stmt_inner()?;
        s.allows = allows;
        Ok(s)
    }

    fn stmt_inner(&mut self) -> Result<AStmt, LangError> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::Keyword(Keyword::Var) => self.var_decl(),
            TokenKind::Keyword(Keyword::If) => self.if_stmt(),
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = self.block()?;
                Ok(AStmt::new(AStmtKind::While { cond, body }, span))
            }
            TokenKind::Keyword(Keyword::For) => self.for_stmt(),
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if *self.peek() == TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                Ok(AStmt::new(AStmtKind::Return(value), span))
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(AStmt::new(AStmtKind::Break, span))
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(AStmt::new(AStmtKind::Continue, span))
            }
            TokenKind::Keyword(Keyword::Print) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::Semi)?;
                Ok(AStmt::new(AStmtKind::Print(e), span))
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect_punct(Punct::Semi)?;
                Ok(s)
            }
        }
    }

    // `var` and `for` parse in functions of their own, so their locals
    // take no room in `stmt_inner`'s frame, which every nesting level of
    // a block pushes.
    fn var_decl(&mut self) -> Result<AStmt, LangError> {
        let span = self.span();
        self.expect_keyword(Keyword::Var)?;
        let name = self.expect_ident()?;
        self.expect_punct(Punct::Colon)?;
        let ty = self.ty()?;
        let init = if self.eat_punct(Punct::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect_punct(Punct::Semi)?;
        Ok(AStmt::new(AStmtKind::VarDecl { name, ty, init }, span))
    }

    fn for_stmt(&mut self) -> Result<AStmt, LangError> {
        let span = self.span();
        self.expect_keyword(Keyword::For)?;
        self.expect_punct(Punct::LParen)?;
        let init = if *self.peek() == TokenKind::Punct(Punct::Semi) {
            None
        } else {
            Some(Box::new(self.simple_stmt()?))
        };
        self.expect_punct(Punct::Semi)?;
        let cond = if *self.peek() == TokenKind::Punct(Punct::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect_punct(Punct::Semi)?;
        let step = if *self.peek() == TokenKind::Punct(Punct::RParen) {
            None
        } else {
            Some(Box::new(self.simple_stmt()?))
        };
        self.expect_punct(Punct::RParen)?;
        let body = self.block()?;
        Ok(AStmt::new(
            AStmtKind::For {
                init,
                cond,
                step,
                body,
            },
            span,
        ))
    }

    /// An assignment or expression statement, without the trailing `;`
    /// (shared between statement position and `for` headers).
    fn simple_stmt(&mut self) -> Result<AStmt, LangError> {
        let span = self.span();
        let e = self.expr()?;
        if self.eat_punct(Punct::Assign) {
            let value = self.expr()?;
            Ok(AStmt::new(AStmtKind::Assign { place: e, value }, span))
        } else {
            Ok(AStmt::new(AStmtKind::Expr(e), span))
        }
    }

    fn if_stmt(&mut self) -> Result<AStmt, LangError> {
        let span = self.span();
        self.expect_keyword(Keyword::If)?;
        self.expect_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let then_blk = self.block()?;
        let else_blk = if self.eat_keyword(Keyword::Else) {
            if *self.peek() == TokenKind::Keyword(Keyword::If) {
                self.descend()?;
                let else_if = self.if_stmt()?;
                self.depth -= 1;
                vec![else_if]
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        Ok(AStmt::new(
            AStmtKind::If {
                cond,
                then_blk,
                else_blk,
            },
            span,
        ))
    }

    fn expr(&mut self) -> Result<AExpr, LangError> {
        self.descend()?;
        let e = self.binary_expr(0)?;
        self.depth -= 1;
        Ok(e)
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<AExpr, LangError> {
        let depth = self.depth;
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Punct(Punct::OrOr) => BinOp::Or,
                TokenKind::Punct(Punct::AndAnd) => BinOp::And,
                TokenKind::Punct(Punct::EqEq) => BinOp::Eq,
                TokenKind::Punct(Punct::NotEq) => BinOp::Ne,
                TokenKind::Punct(Punct::Lt) => BinOp::Lt,
                TokenKind::Punct(Punct::Le) => BinOp::Le,
                TokenKind::Punct(Punct::Gt) => BinOp::Gt,
                TokenKind::Punct(Punct::Ge) => BinOp::Ge,
                TokenKind::Punct(Punct::Plus) => BinOp::Add,
                TokenKind::Punct(Punct::Minus) => BinOp::Sub,
                TokenKind::Punct(Punct::Star) => BinOp::Mul,
                TokenKind::Punct(Punct::Slash) => BinOp::Div,
                TokenKind::Punct(Punct::Percent) => BinOp::Rem,
                _ => break,
            };
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            let span = self.span();
            self.descend()?;
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            lhs = AExpr::new(
                AExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<AExpr, LangError> {
        let span = self.span();
        let op = if self.eat_punct(Punct::Minus) {
            UnOp::Neg
        } else if self.eat_punct(Punct::Bang) {
            UnOp::Not
        } else {
            return self.postfix_expr();
        };
        self.descend()?;
        let arg = self.unary_expr()?;
        self.depth -= 1;
        Ok(AExpr::new(
            AExprKind::Unary {
                op,
                arg: Box::new(arg),
            },
            span,
        ))
    }

    fn postfix_expr(&mut self) -> Result<AExpr, LangError> {
        let depth = self.depth;
        let mut e = self.primary_expr()?;
        loop {
            let span = self.span();
            if matches!(self.peek(), TokenKind::Punct(Punct::LBracket | Punct::Dot)) {
                self.descend()?;
            }
            if self.eat_punct(Punct::LBracket) {
                let index = self.expr()?;
                self.expect_punct(Punct::RBracket)?;
                e = AExpr::new(
                    AExprKind::Index {
                        base: Box::new(e),
                        index: Box::new(index),
                    },
                    span,
                );
            } else if self.eat_punct(Punct::Dot) {
                let name = self.expect_ident()?;
                e = AExpr::new(
                    AExprKind::Field {
                        obj: Box::new(e),
                        name,
                    },
                    span,
                );
                if *self.peek() == TokenKind::Punct(Punct::LParen) {
                    let args = self.call_args()?;
                    e = AExpr::new(
                        AExprKind::Call {
                            callee: Box::new(e),
                            args,
                        },
                        span,
                    );
                }
            } else {
                break;
            }
        }
        self.depth = depth;
        Ok(e)
    }

    fn call_args(&mut self) -> Result<Vec<AExpr>, LangError> {
        self.expect_punct(Punct::LParen)?;
        let mut args = Vec::new();
        if !self.eat_punct(Punct::RParen) {
            loop {
                args.push(self.expr()?);
                if self.eat_punct(Punct::RParen) {
                    break;
                }
                self.expect_punct(Punct::Comma)?;
            }
        }
        Ok(args)
    }

    fn primary_expr(&mut self) -> Result<AExpr, LangError> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(AExpr::new(AExprKind::Int(v), span))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(AExpr::new(AExprKind::Float(v), span))
            }
            TokenKind::Keyword(Keyword::True) => {
                self.bump();
                Ok(AExpr::new(AExprKind::Bool(true), span))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.bump();
                Ok(AExpr::new(AExprKind::Bool(false), span))
            }
            TokenKind::Keyword(Keyword::SelfKw) => {
                self.bump();
                Ok(AExpr::new(AExprKind::SelfRef, span))
            }
            TokenKind::Keyword(Keyword::New) => {
                self.bump();
                let base = self.ty_base()?;
                if self.eat_punct(Punct::LBracket) {
                    let len = self.expr()?;
                    self.expect_punct(Punct::RBracket)?;
                    Ok(AExpr::new(
                        AExprKind::NewArray {
                            elem: base,
                            len: Box::new(len),
                        },
                        span,
                    ))
                } else if *self.peek() == TokenKind::Punct(Punct::LParen) {
                    self.bump();
                    self.expect_punct(Punct::RParen)?;
                    match base {
                        AType::Named(name) => Ok(AExpr::new(AExprKind::NewObject(name), span)),
                        _ => Err(LangError::parse("`new T()` requires a class name", span)),
                    }
                } else {
                    Err(LangError::parse(
                        "expected `[len]` or `()` after `new T`",
                        self.span(),
                    ))
                }
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if *self.peek() == TokenKind::Punct(Punct::LParen) {
                    let args = self.call_args()?;
                    Ok(AExpr::new(
                        AExprKind::Call {
                            callee: Box::new(AExpr::new(AExprKind::Ident(name), span)),
                            args,
                        },
                        span,
                    ))
                } else {
                    Ok(AExpr::new(AExprKind::Ident(name), span))
                }
            }
            other => Err(LangError::parse(
                format!("expected expression, found {}", other.describe()),
                span,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> AProgram {
        parse_tokens(&lex(src).expect("lexes")).expect("parses")
    }

    fn parse_err(src: &str) -> LangError {
        match parse_tokens(&lex(src).expect("lexes")) {
            Ok(_) => panic!("expected parse error for: {src}"),
            Err(e) => e,
        }
    }

    #[test]
    fn parses_function_with_params_and_return() {
        let p = parse("fn f(x: int, a: float[]) -> int { return x; }");
        assert_eq!(p.funcs.len(), 1);
        let f = &p.funcs[0];
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[1].1, AType::Array(Box::new(AType::Float)));
        assert_eq!(f.ret, Some(AType::Int));
    }

    #[test]
    fn parses_precedence() {
        let p = parse("fn f() -> int { return 1 + 2 * 3; }");
        match &p.funcs[0].body[0].kind {
            AStmtKind::Return(Some(e)) => match &e.kind {
                AExprKind::Binary { op, rhs, .. } => {
                    assert_eq!(*op, BinOp::Add);
                    assert!(matches!(rhs.kind, AExprKind::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("expected binary, got {other:?}"),
            },
            other => panic!("expected return, got {other:?}"),
        }
    }

    #[test]
    fn left_associativity() {
        let p = parse("fn f() -> int { return 10 - 3 - 2; }");
        match &p.funcs[0].body[0].kind {
            AStmtKind::Return(Some(e)) => match &e.kind {
                AExprKind::Binary { op, lhs, .. } => {
                    assert_eq!(*op, BinOp::Sub);
                    assert!(matches!(lhs.kind, AExprKind::Binary { op: BinOp::Sub, .. }));
                }
                other => panic!("expected binary, got {other:?}"),
            },
            other => panic!("expected return, got {other:?}"),
        }
    }

    #[test]
    fn parses_else_if_chain() {
        let p = parse("fn f(x: int) { if (x > 0) { } else if (x < 0) { } else { } }");
        match &p.funcs[0].body[0].kind {
            AStmtKind::If { else_blk, .. } => {
                assert_eq!(else_blk.len(), 1);
                assert!(matches!(else_blk[0].kind, AStmtKind::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_for_loop() {
        let p = parse("fn f() { for (i = 0; i < 10; i = i + 1) { print(i); } }");
        assert!(matches!(p.funcs[0].body[0].kind, AStmtKind::For { .. }));
    }

    #[test]
    fn parses_class_with_fields_and_methods() {
        let p = parse(
            "class Point { x: int; y: int; fn norm2() -> int { return self.x * self.x + self.y * self.y; } }",
        );
        assert_eq!(p.classes.len(), 1);
        assert_eq!(p.classes[0].fields.len(), 2);
        assert_eq!(p.classes[0].methods.len(), 1);
    }

    #[test]
    fn parses_method_call_and_field_chain() {
        let p = parse("fn f(p: Point) -> int { return p.norm2() + p.x; }");
        match &p.funcs[0].body[0].kind {
            AStmtKind::Return(Some(e)) => match &e.kind {
                AExprKind::Binary { lhs, rhs, .. } => {
                    assert!(matches!(lhs.kind, AExprKind::Call { .. }));
                    assert!(matches!(rhs.kind, AExprKind::Field { .. }));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_globals_scalar_and_array() {
        let p = parse("global n: int = 5; global buf: int[] = new int[16];");
        assert_eq!(p.globals.len(), 2);
        assert!(p.globals[0].init.is_some());
        assert_eq!(p.globals[1].array_len, Some(16));
    }

    #[test]
    fn parses_new_array_and_object() {
        let p = parse("fn f() { var a: int[] = new int[10]; var p: Point = new Point(); }");
        assert_eq!(p.funcs[0].body.len(), 2);
    }

    #[test]
    fn parses_array_assignment() {
        let p = parse("fn f(a: int[]) { a[0] = a[1] + 1; }");
        assert!(matches!(p.funcs[0].body[0].kind, AStmtKind::Assign { .. }));
    }

    #[test]
    fn parses_allow_attributes() {
        let p = parse(
            "@allow(weak_ilp_constant)
             fn f(x: int) -> int {
                 @allow(unused_leak, weak_ilp_linear)
                 var y: int = x + 1;
                 return y;
             }
             class C { v: int; @allow(transferable_fragment) fn get() -> int { return self.v; } }",
        );
        assert_eq!(p.funcs[0].allows, vec!["weak_ilp_constant"]);
        assert_eq!(
            p.funcs[0].body[0].allows,
            vec!["unused_leak", "weak_ilp_linear"]
        );
        assert!(p.funcs[0].body[1].allows.is_empty());
        assert_eq!(
            p.classes[0].methods[0].allows,
            vec!["transferable_fragment"]
        );
    }

    #[test]
    fn error_on_unknown_attribute() {
        let e = parse_err("@inline fn f() { }");
        assert!(e.to_string().contains("unknown attribute"), "got {e}");
    }

    #[test]
    fn error_on_attribute_before_global() {
        let e = parse_err("@allow(x) global g: int;");
        assert!(e.to_string().contains("must precede a `fn`"), "got {e}");
    }

    #[test]
    fn error_on_missing_semicolon() {
        let e = parse_err("fn f() { return 1 }");
        assert!(e.to_string().contains("expected `;`"), "got {e}");
    }

    #[test]
    fn error_on_unclosed_block() {
        let e = parse_err("fn f() { ");
        assert!(e.to_string().contains("unclosed block"), "got {e}");
    }

    #[test]
    fn error_on_bad_top_level() {
        let e = parse_err("return 1;");
        assert!(e.to_string().contains("top level"), "got {e}");
    }

    #[test]
    fn error_on_new_scalar_object() {
        let e = parse_err("fn f() { var x: int = new int(); }");
        assert!(e.to_string().contains("class name"), "got {e}");
    }
}
