//! Hand-rolled text frontend for the query subset the planner can
//! execute:
//!
//! ```text
//! SELECT <items|*> FROM r1 JOIN r2 ON r1.a = r2.b [JOIN ...]*
//!     [WHERE pred [AND pred]*] [GROUP BY r.c, ...] [LIMIT n]
//! ```
//!
//! The parser produces a purely syntactic [`QueryAst`] — every identifier
//! carries its byte [`Span`] in the source text, so name-resolution errors
//! downstream (binding against a catalog, in `mj-exec`'s session layer)
//! point at the offending token just like [`ParseError`]s do. No external
//! dependencies; the tokenizer and recursive-descent parser are a few
//! hundred lines.
//!
//! Grammar (keywords case-insensitive, identifiers case-sensitive;
//! `--` starts a comment that runs to end of line; newlines are
//! whitespace):
//!
//! ```text
//! query       := SELECT select_list FROM ident join_clause*
//!                [WHERE predicate (AND predicate)*]
//!                [GROUP BY column (',' column)*]
//!                [LIMIT int]
//! select_list := '*' | item (',' item)*
//! item        := column | agg '(' ('*' | column) ')'
//! agg         := COUNT | SUM | MIN | MAX        (soft keywords)
//! join_clause := JOIN ident ON column '=' column
//! predicate   := scalar cmp scalar
//! scalar      := column | int | param
//! cmp         := '=' | '<>' | '<' | '<=' | '>' | '>='
//! column      := ident '.' ident
//! ident       := [A-Za-z_][A-Za-z0-9_]*
//! int         := '-'? [0-9]+
//! param       := '?' [1-9][0-9]*
//! ```
//!
//! `?N` placeholders (1-based) are only legal where an integer literal
//! could appear in a WHERE comparison; they parse into
//! [`Scalar::Param`] and are bound to concrete values at execute time
//! by the prepared-statement layer.

use std::fmt;

use mj_relalg::ops::AggFunc;
use mj_relalg::CmpOp;

/// A byte range into the query source text (`start..end`).
///
/// The query server's error frames carry it as `{"start": .., "end": ..}`,
/// so a remote client can render the same caret line a local one would.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// Creates a span.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// A parse failure, located at a byte span of the source. The query
/// server maps it into a typed wire error without losing the location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Where in the source text.
    pub span: Span,
}

impl ParseError {
    fn new(message: impl Into<String>, span: Span) -> Self {
        ParseError {
            message: message.into(),
            span,
        }
    }

    /// Renders the error with a caret line pointing into `source`:
    ///
    /// ```text
    /// parse error at 14: expected `=`
    ///   SELECT * FROM r1 JOIN
    ///                 ^^
    /// ```
    pub fn render(&self, source: &str) -> String {
        render_span(
            source,
            self.span,
            &format!("parse error at {}: {}", self.span.start, self.message),
        )
    }
}

/// Renders `headline` followed by the source line holding `span` and a
/// caret underline — shared by parse errors and the session layer's bind
/// errors so every spanned diagnostic looks the same. Multi-line sources
/// (stdin queries with newlines and `--` comments) underline the line that
/// actually holds the span.
pub fn render_span(source: &str, span: Span, headline: &str) -> String {
    let mut out = format!("{headline}\n");
    // Find the line holding the span.
    let line_start = source[..span.start.min(source.len())]
        .rfind('\n')
        .map(|i| i + 1)
        .unwrap_or(0);
    let line_end = source[line_start..]
        .find('\n')
        .map(|i| line_start + i)
        .unwrap_or(source.len());
    let line = &source[line_start..line_end];
    out.push_str(&format!("  {line}\n  "));
    let col = span.start.saturating_sub(line_start);
    let width = (span.end - span.start)
        .max(1)
        .min(line.len() + 1 - col.min(line.len()));
    out.push_str(&" ".repeat(col));
    out.push_str(&"^".repeat(width.max(1)));
    out.push('\n');
    out
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span.start, self.message)
    }
}

impl std::error::Error for ParseError {}

/// An identifier with its source span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ident {
    /// The identifier text, as written.
    pub name: String,
    /// Its location in the source.
    pub span: Span,
}

/// A qualified column reference `relation.column`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnRef {
    /// The relation part.
    pub relation: Ident,
    /// The column part.
    pub column: Ident,
}

impl ColumnRef {
    /// Span covering `relation.column`.
    pub fn span(&self) -> Span {
        self.relation.span.to(self.column.span)
    }
}

/// An aggregate call in the select list: `COUNT(*)`, `SUM(r.c)`,
/// `MIN(r.c)`, `MAX(r.c)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggCall {
    /// The aggregate function.
    pub func: AggFunc,
    /// The argument column; `None` is `COUNT(*)`.
    pub arg: Option<ColumnRef>,
    /// Span of the whole call, `COUNT(...)`.
    pub span: Span,
}

/// One item of an explicit select list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SelectItem {
    /// A plain column reference.
    Column(ColumnRef),
    /// An aggregate call.
    Aggregate(AggCall),
}

impl SelectItem {
    /// Source span of the item.
    pub fn span(&self) -> Span {
        match self {
            SelectItem::Column(c) => c.span(),
            SelectItem::Aggregate(a) => a.span,
        }
    }
}

/// The projection list of a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SelectList {
    /// `SELECT *`: every column of every relation, in tree-independent
    /// `(relation, column)` order (the default output of the lowering).
    Star,
    /// An explicit ordered item list (columns and/or aggregate calls).
    Items(Vec<SelectItem>),
}

/// One side of a WHERE comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Scalar {
    /// A qualified column.
    Column(ColumnRef),
    /// An integer literal.
    Int(i64, Span),
    /// A 1-based prepared-statement placeholder, `?N`.
    Param(u32, Span),
}

impl Scalar {
    /// Source span of the scalar.
    pub fn span(&self) -> Span {
        match self {
            Scalar::Column(c) => c.span(),
            Scalar::Int(_, span) => *span,
            Scalar::Param(_, span) => *span,
        }
    }
}

/// One WHERE conjunct: `scalar cmp scalar`.
#[derive(Clone, Debug, PartialEq)]
pub struct WhereClause {
    /// Left-hand side.
    pub left: Scalar,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side.
    pub right: Scalar,
    /// Span of the whole comparison.
    pub span: Span,
}

/// A `LIMIT n` clause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LimitClause {
    /// Maximum number of result rows.
    pub rows: u64,
    /// Span of the count literal.
    pub span: Span,
}

/// One `JOIN r ON a.x = b.y` clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinClause {
    /// The newly joined relation.
    pub relation: Ident,
    /// Left side of the equality.
    pub left: ColumnRef,
    /// Right side of the equality.
    pub right: ColumnRef,
    /// Span of the whole `ON a.x = b.y` condition.
    pub on_span: Span,
}

/// The parsed (but not yet name-resolved) query.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryAst {
    /// The projection.
    pub select: SelectList,
    /// The first relation (`FROM`).
    pub from: Ident,
    /// The join clauses, in source order.
    pub joins: Vec<JoinClause>,
    /// The WHERE conjuncts, in source order (empty = no WHERE).
    pub where_clauses: Vec<WhereClause>,
    /// The GROUP BY columns, in source order (empty = no grouping).
    pub group_by: Vec<ColumnRef>,
    /// The LIMIT clause, if any.
    pub limit: Option<LimitClause>,
}

impl QueryAst {
    /// All relation identifiers in source order (`FROM` first).
    pub fn relations(&self) -> Vec<&Ident> {
        let mut out = Vec::with_capacity(1 + self.joins.len());
        out.push(&self.from);
        out.extend(self.joins.iter().map(|j| &j.relation));
        out
    }
}

// --- Tokenizer ---

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Param(u32),
    Star,
    Comma,
    Dot,
    LParen,
    RParen,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("`{s}`"),
            Tok::Int(v) => format!("`{v}`"),
            Tok::Param(n) => format!("`?{n}`"),
            Tok::Star => "`*`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Dot => "`.`".into(),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::Eq => "`=`".into(),
            Tok::Ne => "`<>`".into(),
            Tok::Lt => "`<`".into(),
            Tok::Le => "`<=`".into(),
            Tok::Gt => "`>`".into(),
            Tok::Ge => "`>=`".into(),
        }
    }
}

fn tokenize(src: &str) -> Result<Vec<(Tok, Span)>, ParseError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'*' => {
                toks.push((Tok::Star, Span::new(i, i + 1)));
                i += 1;
            }
            b',' => {
                toks.push((Tok::Comma, Span::new(i, i + 1)));
                i += 1;
            }
            b'.' => {
                toks.push((Tok::Dot, Span::new(i, i + 1)));
                i += 1;
            }
            b'(' => {
                toks.push((Tok::LParen, Span::new(i, i + 1)));
                i += 1;
            }
            b')' => {
                toks.push((Tok::RParen, Span::new(i, i + 1)));
                i += 1;
            }
            b'=' => {
                toks.push((Tok::Eq, Span::new(i, i + 1)));
                i += 1;
            }
            b'<' => {
                // `<=`, `<>`, or `<`.
                match bytes.get(i + 1) {
                    Some(b'=') => {
                        toks.push((Tok::Le, Span::new(i, i + 2)));
                        i += 2;
                    }
                    Some(b'>') => {
                        toks.push((Tok::Ne, Span::new(i, i + 2)));
                        i += 2;
                    }
                    _ => {
                        toks.push((Tok::Lt, Span::new(i, i + 1)));
                        i += 1;
                    }
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::Ge, Span::new(i, i + 2)));
                    i += 2;
                } else {
                    toks.push((Tok::Gt, Span::new(i, i + 1)));
                    i += 1;
                }
            }
            b'-' => {
                // `--` comment to end of line, or a negative int literal.
                if bytes.get(i + 1) == Some(&b'-') {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                } else if bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    let (tok, span) = lex_int(src, i, i + 1)?;
                    i = span.end;
                    toks.push((tok, span));
                } else {
                    return Err(ParseError::new(
                        "unexpected character `-` (use `--` for comments)",
                        Span::new(i, i + 1),
                    ));
                }
            }
            b'?' => {
                // `?N` prepared-statement placeholder, 1-based.
                let start = i;
                let mut j = i + 1;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                let span = Span::new(start, j);
                if j == i + 1 {
                    return Err(ParseError::new(
                        "expected a parameter number after `?` (placeholders are `?1`, `?2`, ...)",
                        span,
                    ));
                }
                let n: u32 = src[i + 1..j].parse().map_err(|_| {
                    ParseError::new(
                        format!("parameter number `{}` out of range", &src[i + 1..j]),
                        span,
                    )
                })?;
                if n == 0 {
                    return Err(ParseError::new(
                        "parameter numbers are 1-based; `?0` is not a placeholder",
                        span,
                    ));
                }
                toks.push((Tok::Param(n), span));
                i = j;
            }
            b'0'..=b'9' => {
                let (tok, span) = lex_int(src, i, i)?;
                i = span.end;
                toks.push((tok, span));
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                toks.push((Tok::Ident(src[start..i].to_string()), Span::new(start, i)));
            }
            _ => {
                return Err(ParseError::new(
                    format!("unexpected character `{}`", &src[i..i + utf8_len(b)]),
                    Span::new(i, i + utf8_len(b)),
                ))
            }
        }
    }
    Ok(toks)
}

/// Lexes an integer literal starting at `start` whose digits begin at
/// `digits` (one past a leading `-`).
fn lex_int(src: &str, start: usize, digits: usize) -> Result<(Tok, Span), ParseError> {
    let bytes = src.as_bytes();
    let mut i = digits;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    let span = Span::new(start, i);
    let v: i64 = src[start..i]
        .parse()
        .map_err(|_| ParseError::new(format!("integer `{}` out of range", &src[start..i]), span))?;
    Ok((Tok::Int(v), span))
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

// --- Parser ---

struct Parser {
    toks: Vec<(Tok, Span)>,
    pos: usize,
    /// End of input, for end-of-query spans.
    eof: usize,
}

impl Parser {
    fn peek(&self) -> Option<&(Tok, Span)> {
        self.toks.get(self.pos)
    }

    fn peek2(&self) -> Option<&(Tok, Span)> {
        self.toks.get(self.pos + 1)
    }

    fn eof_span(&self) -> Span {
        Span::new(self.eof, self.eof)
    }

    fn next(&mut self, what: &str) -> Result<(Tok, Span), ParseError> {
        match self.toks.get(self.pos) {
            Some(t) => {
                self.pos += 1;
                Ok(t.clone())
            }
            None => Err(ParseError::new(
                format!("expected {what}, found end of query"),
                self.eof_span(),
            )),
        }
    }

    /// Consumes a keyword (case-insensitive identifier).
    fn keyword(&mut self, kw: &str) -> Result<Span, ParseError> {
        let (tok, span) = self.next(&format!("keyword `{kw}`"))?;
        match &tok {
            Tok::Ident(s) if s.eq_ignore_ascii_case(kw) => Ok(span),
            other => Err(ParseError::new(
                format!("expected keyword `{kw}`, found {}", other.describe()),
                span,
            )),
        }
    }

    /// True if the next token is the given keyword (not consumed).
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some((Tok::Ident(s), _)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self, what: &str) -> Result<Ident, ParseError> {
        let (tok, span) = self.next(what)?;
        match tok {
            Tok::Ident(name) => {
                if is_keyword(&name) {
                    return Err(ParseError::new(
                        format!("expected {what}, found keyword `{name}`"),
                        span,
                    ));
                }
                Ok(Ident { name, span })
            }
            other => Err(ParseError::new(
                format!("expected {what}, found {}", other.describe()),
                span,
            )),
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<Span, ParseError> {
        let what = tok.describe();
        let (found, span) = self.next(&what)?;
        if found == tok {
            Ok(span)
        } else {
            Err(ParseError::new(
                format!("expected {what}, found {}", found.describe()),
                span,
            ))
        }
    }

    fn column(&mut self) -> Result<ColumnRef, ParseError> {
        let relation = self.ident("a `relation.column` reference")?;
        self.expect(Tok::Dot).map_err(|e| {
            ParseError::new(
                format!("columns must be written `relation.column`; {}", e.message),
                e.span,
            )
        })?;
        let column = self.ident("a column name")?;
        Ok(ColumnRef { relation, column })
    }

    /// The aggregate function named by the next token, if the token after
    /// it opens a call — `COUNT`/`SUM`/`MIN`/`MAX` are *soft* keywords, so
    /// columns with those names stay valid.
    fn at_agg_call(&self) -> Option<AggFunc> {
        let (Tok::Ident(name), _) = self.peek()? else {
            return None;
        };
        if !matches!(self.peek2(), Some((Tok::LParen, _))) {
            return None;
        }
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        }
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        if let Some(func) = self.at_agg_call() {
            let (_, name_span) = self.next("an aggregate")?;
            self.expect(Tok::LParen)?;
            let arg = if matches!(self.peek(), Some((Tok::Star, _))) {
                let (_, star_span) = self.next("`*`")?;
                if func != AggFunc::Count {
                    return Err(ParseError::new(
                        "only COUNT accepts `*`; SUM/MIN/MAX need a `relation.column` argument",
                        star_span,
                    ));
                }
                None
            } else {
                Some(self.column()?)
            };
            let close = self.expect(Tok::RParen)?;
            return Ok(SelectItem::Aggregate(AggCall {
                func,
                arg,
                span: name_span.to(close),
            }));
        }
        Ok(SelectItem::Column(self.column()?))
    }

    fn select_list(&mut self) -> Result<SelectList, ParseError> {
        if matches!(self.peek(), Some((Tok::Star, _))) {
            self.pos += 1;
            return Ok(SelectList::Star);
        }
        let mut items = vec![self.select_item()?];
        while matches!(self.peek(), Some((Tok::Comma, _))) {
            self.pos += 1;
            items.push(self.select_item()?);
        }
        Ok(SelectList::Items(items))
    }

    fn join_clause(&mut self) -> Result<JoinClause, ParseError> {
        self.keyword("JOIN")?;
        let relation = self.ident("a relation name")?;
        self.keyword("ON")?;
        let left = self.column()?;
        self.expect(Tok::Eq)?;
        let right = self.column()?;
        let on_span = left.span().to(right.span());
        Ok(JoinClause {
            relation,
            left,
            right,
            on_span,
        })
    }

    fn scalar(&mut self) -> Result<Scalar, ParseError> {
        if let Some((Tok::Int(v), span)) = self.peek() {
            let (v, span) = (*v, *span);
            self.pos += 1;
            return Ok(Scalar::Int(v, span));
        }
        if let Some((Tok::Param(n), span)) = self.peek() {
            let (n, span) = (*n, *span);
            self.pos += 1;
            return Ok(Scalar::Param(n, span));
        }
        Ok(Scalar::Column(self.column()?))
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        let (tok, span) = self.next("a comparison operator (`=`, `<>`, `<`, `<=`, `>`, `>=`)")?;
        match tok {
            Tok::Eq => Ok(CmpOp::Eq),
            Tok::Ne => Ok(CmpOp::Ne),
            Tok::Lt => Ok(CmpOp::Lt),
            Tok::Le => Ok(CmpOp::Le),
            Tok::Gt => Ok(CmpOp::Gt),
            Tok::Ge => Ok(CmpOp::Ge),
            other => Err(ParseError::new(
                format!(
                    "expected a comparison operator (`=`, `<>`, `<`, `<=`, `>`, `>=`), found {}",
                    other.describe()
                ),
                span,
            )),
        }
    }

    fn where_clause(&mut self) -> Result<WhereClause, ParseError> {
        let left = self.scalar()?;
        let op = self.cmp_op()?;
        let right = self.scalar()?;
        let span = left.span().to(right.span());
        Ok(WhereClause {
            left,
            op,
            right,
            span,
        })
    }

    fn limit_clause(&mut self) -> Result<LimitClause, ParseError> {
        let (tok, span) = self.next("a row count")?;
        match tok {
            Tok::Int(v) if v >= 0 => Ok(LimitClause {
                rows: v as u64,
                span,
            }),
            Tok::Int(v) => Err(ParseError::new(
                format!("LIMIT must be non-negative, got {v}"),
                span,
            )),
            other => Err(ParseError::new(
                format!("expected a row count, found {}", other.describe()),
                span,
            )),
        }
    }

    fn query(&mut self) -> Result<QueryAst, ParseError> {
        self.keyword("SELECT")?;
        let select = self.select_list()?;
        self.keyword("FROM")?;
        let from = self.ident("a relation name")?;
        let mut joins = Vec::new();
        while self.at_keyword("JOIN") {
            joins.push(self.join_clause()?);
        }
        let mut where_clauses = Vec::new();
        if self.at_keyword("WHERE") {
            self.pos += 1;
            where_clauses.push(self.where_clause()?);
            while self.at_keyword("AND") {
                self.pos += 1;
                where_clauses.push(self.where_clause()?);
            }
        }
        let mut group_by = Vec::new();
        if self.at_keyword("GROUP") {
            self.pos += 1;
            self.keyword("BY")?;
            group_by.push(self.column()?);
            while matches!(self.peek(), Some((Tok::Comma, _))) {
                self.pos += 1;
                group_by.push(self.column()?);
            }
        }
        let limit = if self.at_keyword("LIMIT") {
            self.pos += 1;
            Some(self.limit_clause()?)
        } else {
            None
        };
        if let Some((tok, span)) = self.peek() {
            return Err(ParseError::new(
                format!(
                    "expected `JOIN`, `WHERE`, `GROUP BY`, `LIMIT`, or end of query, found {}",
                    tok.describe()
                ),
                *span,
            ));
        }
        Ok(QueryAst {
            select,
            from,
            joins,
            where_clauses,
            group_by,
            limit,
        })
    }
}

fn is_keyword(s: &str) -> bool {
    [
        "select", "from", "join", "on", "where", "group", "by", "limit", "and",
    ]
    .iter()
    .any(|k| s.eq_ignore_ascii_case(k))
}

/// Parses a query text into a [`QueryAst`].
pub fn parse_query(src: &str) -> Result<QueryAst, ParseError> {
    let toks = tokenize(src)?;
    if toks.is_empty() {
        return Err(ParseError::new("empty query", Span::new(0, 0)));
    }
    Parser {
        toks,
        pos: 0,
        eof: src.len(),
    }
    .query()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_query_with_joins() {
        let q =
            parse_query("SELECT * FROM r0 JOIN r1 ON r0.b = r1.a JOIN r2 ON r1.b = r2.a").unwrap();
        assert_eq!(q.select, SelectList::Star);
        assert_eq!(q.from.name, "r0");
        assert_eq!(q.joins.len(), 2);
        assert_eq!(q.joins[0].relation.name, "r1");
        assert_eq!(q.joins[0].left.relation.name, "r0");
        assert_eq!(q.joins[0].left.column.name, "b");
        assert_eq!(q.joins[1].right.column.name, "a");
        assert!(q.where_clauses.is_empty());
        assert!(q.group_by.is_empty());
        assert!(q.limit.is_none());
        let names: Vec<&str> = q.relations().iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["r0", "r1", "r2"]);
    }

    #[test]
    fn explicit_column_list_and_case_insensitive_keywords() {
        let q = parse_query("select R0.id, R1.id from R0 join R1 on R0.b = R1.a").unwrap();
        match &q.select {
            SelectList::Items(items) => {
                assert_eq!(items.len(), 2);
                let SelectItem::Column(c0) = &items[0] else {
                    panic!("expected column");
                };
                assert_eq!(c0.relation.name, "R0");
            }
            other => panic!("expected items, got {other:?}"),
        }
    }

    #[test]
    fn where_group_by_limit_full_query() {
        let src = "SELECT r0.g, COUNT(*), SUM(r1.v) FROM r0 JOIN r1 ON r0.b = r1.a \
                   WHERE r0.a < 100 AND r1.v >= -5 GROUP BY r0.g LIMIT 10";
        let q = parse_query(src).unwrap();
        let SelectList::Items(items) = &q.select else {
            panic!("expected items");
        };
        assert_eq!(items.len(), 3);
        assert!(matches!(&items[0], SelectItem::Column(_)));
        let SelectItem::Aggregate(count) = &items[1] else {
            panic!("expected aggregate");
        };
        assert_eq!(count.func, AggFunc::Count);
        assert!(count.arg.is_none());
        let SelectItem::Aggregate(sum) = &items[2] else {
            panic!("expected aggregate");
        };
        assert_eq!(sum.func, AggFunc::Sum);
        assert_eq!(sum.arg.as_ref().unwrap().column.name, "v");

        assert_eq!(q.where_clauses.len(), 2);
        let w0 = &q.where_clauses[0];
        assert!(matches!(w0.left, Scalar::Column(_)));
        assert_eq!(w0.op, CmpOp::Lt);
        assert!(matches!(w0.right, Scalar::Int(100, _)));
        assert!(matches!(q.where_clauses[1].right, Scalar::Int(-5, _)));
        assert_eq!(q.where_clauses[1].op, CmpOp::Ge);

        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.group_by[0].column.name, "g");
        assert_eq!(q.limit.unwrap().rows, 10);
    }

    #[test]
    fn newlines_and_comments_preserve_spans() {
        let src = "SELECT * FROM r0 -- pick everything\n\
                   JOIN r1 ON r0.b = r1.a\n\
                   -- a full-line comment\n\
                   WHERE r0.a = 7\n\
                   LIMIT 3";
        let q = parse_query(src).unwrap();
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.where_clauses.len(), 1);
        assert_eq!(q.limit.unwrap().rows, 3);
        // Spans still index the original source, comments included.
        let j = &q.joins[0];
        assert_eq!(&src[j.relation.span.start..j.relation.span.end], "r1");
        let w = &q.where_clauses[0];
        assert_eq!(&src[w.span.start..w.span.end], "r0.a = 7");
        // An error *after* comments points at the right byte.
        let bad = "SELECT * FROM r0 -- c\nJOIN r1 ON r0.b r1.a";
        let err = parse_query(bad).unwrap_err();
        assert_eq!(&bad[err.span.start..err.span.end], "r1");
        let rendered = err.render(bad);
        assert!(rendered.contains("JOIN r1 ON r0.b r1.a"), "{rendered}");
    }

    #[test]
    fn comment_only_input_is_empty() {
        let err = parse_query("-- nothing here\n  -- still nothing").unwrap_err();
        assert!(err.message.contains("empty query"), "{err}");
    }

    #[test]
    fn spans_point_at_tokens() {
        let src = "SELECT * FROM r0 JOIN r1 ON r0.b = r1.a";
        let q = parse_query(src).unwrap();
        assert_eq!(&src[q.from.span.start..q.from.span.end], "r0");
        let j = &q.joins[0];
        assert_eq!(&src[j.relation.span.start..j.relation.span.end], "r1");
        assert_eq!(&src[j.on_span.start..j.on_span.end], "r0.b = r1.a");
        assert_eq!(&src[j.left.span().start..j.left.span().end], "r0.b");
    }

    /// Reject table: (source, expected span start, message fragment).
    #[test]
    fn reject_table_with_spans() {
        let cases: &[(&str, usize, &str)] = &[
            ("", 0, "empty query"),
            ("FROM r0", 0, "expected keyword `SELECT`"),
            ("SELECT FROM r0", 7, "found keyword `FROM`"),
            ("SELECT * r0", 9, "expected keyword `FROM`"),
            ("SELECT * FROM", 13, "end of query"),
            ("SELECT * FROM r0 JOIN", 21, "end of query"),
            ("SELECT * FROM r0 JOIN r1", 24, "keyword `ON`"),
            ("SELECT * FROM r0 JOIN r1 ON r0.b r1.a", 33, "expected `=`"),
            (
                "SELECT * FROM r0 JOIN r1 ON b = r1.a",
                30,
                "relation.column",
            ),
            ("SELECT * FROM r0 HAVING x", 17, "expected `JOIN`"),
            (
                "SELECT * FROM r0 JOIN r1 ON r0.b = r1.a extra",
                40,
                "expected `JOIN`",
            ),
            ("SELECT r0 FROM r0", 10, "relation.column"),
            ("SELECT * FROM r0 ; drop", 17, "unexpected character `;`"),
            ("SELECT *, r0.a FROM r0", 8, "expected keyword `FROM`"),
            ("SELECT * FROM r0 WHERE", 22, "end of query"),
            ("SELECT * FROM r0 WHERE r0.a", 27, "comparison operator"),
            ("SELECT * FROM r0 WHERE r0.a = ", 30, "end of query"),
            ("SELECT * FROM r0 WHERE r0.a < 5 AND", 35, "end of query"),
            ("SELECT * FROM r0 GROUP r0.a", 23, "keyword `BY`"),
            ("SELECT * FROM r0 GROUP BY", 25, "end of query"),
            ("SELECT * FROM r0 LIMIT", 22, "end of query"),
            ("SELECT * FROM r0 LIMIT r0.a", 23, "expected a row count"),
            ("SELECT * FROM r0 LIMIT -3", 23, "non-negative"),
            ("SELECT SUM(*) FROM r0", 11, "only COUNT accepts `*`"),
            ("SELECT COUNT( FROM r0", 14, "found keyword `FROM`"),
            ("SELECT COUNT(r0.a FROM r0", 18, "expected `)`"),
            (
                "SELECT * FROM r0 WHERE r0.a ! 5",
                28,
                "unexpected character",
            ),
            (
                "SELECT * FROM r0 WHERE r0.a = ?",
                30,
                "expected a parameter number",
            ),
            ("SELECT * FROM r0 WHERE r0.a = ?0", 30, "1-based"),
            (
                "SELECT * FROM r0 WHERE r0.a = ?99999999999",
                30,
                "out of range",
            ),
            ("SELECT * FROM r0 LIMIT ?1", 23, "expected a row count"),
            (
                "SELECT * FROM r0 LIMIT 5 WHERE r0.a = 1",
                25,
                "end of query",
            ),
        ];
        for (src, start, frag) in cases {
            let err = parse_query(src).expect_err(src);
            assert!(
                err.message.contains(frag),
                "{src}: message `{}` missing `{frag}`",
                err.message
            );
            assert_eq!(err.span.start, *start, "{src}: span {:?}", err.span);
        }
    }

    #[test]
    fn render_points_a_caret() {
        let src = "SELECT * FROM r0 JOIN r1 ON r0.b r1.a";
        let err = parse_query(src).unwrap_err();
        let rendered = err.render(src);
        assert!(rendered.contains("parse error at 33"), "{rendered}");
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines[1].trim_end(), format!("  {src}"));
        assert!(lines[2].trim_end().ends_with('^'), "{rendered}");
        // The caret column matches the span start (+2 for the indent).
        assert_eq!(lines[2].find('^').unwrap(), 2 + 33);
    }

    #[test]
    fn render_multiline_points_into_the_right_line() {
        let src = "SELECT *\nFROM r0\nJOIN r1 ON r0.b r1.a";
        let err = parse_query(src).unwrap_err();
        let rendered = err.render(src);
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines[1], "  JOIN r1 ON r0.b r1.a");
        // Caret at column of `r1.a` within its own line.
        let line_start = src.rfind('\n').unwrap() + 1;
        assert_eq!(
            lines[2].find('^').unwrap(),
            2 + (err.span.start - line_start)
        );
    }

    #[test]
    fn keywords_cannot_be_identifiers() {
        let err = parse_query("SELECT * FROM select").unwrap_err();
        assert!(err.message.contains("keyword `select`"), "{err}");
        assert_eq!(err.span.start, 14);
        // The new keywords are reserved too.
        let err = parse_query("SELECT * FROM where").unwrap_err();
        assert!(err.message.contains("keyword `where`"), "{err}");
    }

    #[test]
    fn aggregate_names_are_soft_keywords() {
        // A column named `count` parses as a plain column...
        let q = parse_query("SELECT r0.count FROM r0 JOIN r1 ON r0.b = r1.a").unwrap();
        let SelectList::Items(items) = &q.select else {
            panic!();
        };
        assert!(matches!(&items[0], SelectItem::Column(c) if c.column.name == "count"));
        // ...while `count(` opens an aggregate call, case-insensitively.
        let q = parse_query("SELECT Count(*) FROM r0 JOIN r1 ON r0.b = r1.a").unwrap();
        let SelectList::Items(items) = &q.select else {
            panic!();
        };
        assert!(matches!(
            &items[0],
            SelectItem::Aggregate(a) if a.func == AggFunc::Count
        ));
    }

    #[test]
    fn underscore_and_digit_identifiers() {
        let q = parse_query("SELECT t_1.c2 FROM t_1 JOIN x9 ON t_1.c2 = x9.k").unwrap();
        assert_eq!(q.from.name, "t_1");
        assert_eq!(q.joins[0].relation.name, "x9");
    }

    #[test]
    fn int_literal_edge_cases() {
        let q = parse_query("SELECT * FROM r0 WHERE r0.a = 0 LIMIT 0").unwrap();
        assert!(matches!(q.where_clauses[0].right, Scalar::Int(0, _)));
        assert_eq!(q.limit.unwrap().rows, 0);
        // Literal-vs-literal parses (binding rejects it later).
        let q = parse_query("SELECT * FROM r0 WHERE 1 = 1").unwrap();
        assert!(matches!(q.where_clauses[0].left, Scalar::Int(1, _)));
        // Out-of-range integers are a spanned lex error.
        let err = parse_query("SELECT * FROM r0 LIMIT 99999999999999999999").unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
        assert_eq!(err.span.start, 23);
    }

    #[test]
    fn param_placeholders() {
        let src = "SELECT * FROM r0 WHERE r0.a < ?1 AND ?2 <= r0.b";
        let q = parse_query(src).unwrap();
        assert_eq!(q.where_clauses.len(), 2);
        let w0 = &q.where_clauses[0];
        assert!(matches!(w0.right, Scalar::Param(1, _)));
        let span = w0.right.span();
        assert_eq!(&src[span.start..span.end], "?1");
        // Params can lead a comparison too.
        assert!(matches!(q.where_clauses[1].left, Scalar::Param(2, _)));
        // Multi-digit parameter numbers lex as one token.
        let q = parse_query("SELECT * FROM r0 WHERE r0.a = ?12").unwrap();
        assert!(matches!(q.where_clauses[0].right, Scalar::Param(12, _)));
    }

    #[test]
    fn span_to_merges() {
        assert_eq!(Span::new(2, 4).to(Span::new(7, 9)), Span::new(2, 9));
        assert_eq!(Span::new(7, 9).to(Span::new(2, 4)), Span::new(2, 9));
    }
}
