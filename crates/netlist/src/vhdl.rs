//! ITC'99-style VHDL subset frontend (import only).
//!
//! The subset covers the shape the ITC'99 benchmark circuits and
//! synthesis netlists share: one entity with scalar `std_logic` ports,
//! one architecture with signal declarations, concurrent signal
//! assignments over the logical operators, and clocked processes that
//! infer D flip-flops:
//!
//! ```text
//! -- comment
//! library ieee;                       -- library/use clauses are skipped
//! use ieee.std_logic_1164.all;
//!
//! entity toggle is
//!   port (
//!     clk : in  std_logic;
//!     en  : in  std_logic;
//!     q   : out std_logic
//!   );
//! end toggle;
//!
//! architecture rtl of toggle is
//!   signal q_i : std_logic := '0';    -- := sets the power-on value
//!   signal nx  : std_logic;
//! begin
//!   nx <= en xor q_i;
//!   q  <= q_i;
//!   process (clk)
//!   begin
//!     if rising_edge(clk) then        -- or: if clk'event and clk = '1' then
//!       q_i <= nx;
//!     end if;
//!   end process;
//! end rtl;
//! ```
//!
//! Keywords are matched case-insensitively (identifiers are
//! case-sensitive in this subset — a documented deviation from full
//! VHDL). Expressions follow VHDL's operator rules: all logical binary
//! operators share one precedence level, chains of the *same*
//! associative operator are allowed (`a and b and c` lowers to one
//! n-ary gate), mixing different operators requires parentheses, and
//! `nand`/`nor` are non-associative. `not` is unary and binds tightest.
//! Expression nesting is depth-capped so hostile inputs cannot blow the
//! stack.
//!
//! The clock is inferred from the process condition (`rising_edge(clk)`
//! or `clk'event and clk = '1'`), must be an `in` port, is excluded
//! from the netlist's primary inputs, and may not be read as data.
//! Every clocked process in the file must use the same clock, matching
//! the IR's single global clock. `:=` defaults are only meaningful on
//! registered signals (they become flip-flop power-on values); a
//! default on a combinational signal or port is rejected.
//!
//! Lowering, duplicate/undefined-net diagnostics and validation are
//! shared with every other frontend through [`crate::import`]; the
//! grammar is specified in `docs/FORMATS.md`. Parse-layer errors carry
//! 1-based line numbers (see the [error contract](crate::NetlistError)).
//!
//! # Example
//!
//! ```
//! let src = "\
//! entity toggle is
//!   port (clk : in std_logic; en : in std_logic; q : out std_logic);
//! end toggle;
//! architecture rtl of toggle is
//!   signal q_i : std_logic := '1';
//!   signal nx : std_logic;
//! begin
//!   nx <= en xor q_i;
//!   q <= q_i;
//!   process (clk)
//!   begin
//!     if rising_edge(clk) then
//!       q_i <= nx;
//!     end if;
//!   end process;
//! end rtl;
//! ";
//! let n = seugrade_netlist::vhdl::parse(src)?;
//! assert_eq!(n.num_ffs(), 1);
//! assert_eq!(n.num_inputs(), 1); // clk is the clock, not data
//! assert_eq!(n.ff_init_values(), vec![true]);
//! # Ok::<(), seugrade_netlist::NetlistError>(())
//! ```

use std::collections::{HashMap, HashSet};

use crate::import::{lower, Lowering, Stmt, Stmts};
use crate::{GateKind, Netlist, NetlistError};

/// Maximum expression nesting depth (parentheses plus `not` chains).
/// Deeper sources are rejected with a line-numbered error instead of
/// risking parser stack exhaustion on hostile input.
const MAX_EXPR_DEPTH: usize = 64;

/// One lexical token; identifiers borrow from the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tok<'a> {
    /// Identifier or keyword (keywords match case-insensitively).
    Id(&'a str),
    /// Bare integer (only legal inside skipped library/use clauses).
    Num(&'a str),
    /// One of `( ) ; : , = .`.
    Sym(char),
    /// `<=`
    LArrow,
    /// `:=`
    ColonEq,
    /// `'0'` or `'1'`.
    Bit(bool),
    /// A lone `'` — the attribute tick in `clk'event`.
    Tick,
}

fn parse_err(line: usize, msg: impl Into<String>) -> NetlistError {
    NetlistError::Parse { line, msg: msg.into() }
}

/// Human-readable token for error messages.
fn show(tok: Tok<'_>) -> String {
    match tok {
        Tok::Id(id) => format!("`{id}`"),
        Tok::Num(n) => format!("number `{n}`"),
        Tok::Sym(c) => format!("`{c}`"),
        Tok::LArrow => "`<=`".into(),
        Tok::ColonEq => "`:=`".into(),
        Tok::Bit(v) => format!("`'{}'`", u8::from(v)),
        Tok::Tick => "`'`".into(),
    }
}

/// Tokenizes the source, tracking 1-based lines through `--` comments.
fn lex(src: &str) -> Result<Vec<(usize, Tok<'_>)>, NetlistError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'-' => {
                if bytes.get(i + 1) == Some(&b'-') {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                } else {
                    return Err(parse_err(line, "unexpected `-`"));
                }
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((line, Tok::LArrow));
                    i += 2;
                } else {
                    return Err(parse_err(line, "unexpected `<`"));
                }
            }
            b':' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((line, Tok::ColonEq));
                    i += 2;
                } else {
                    toks.push((line, Tok::Sym(':')));
                    i += 1;
                }
            }
            b'\'' => {
                // `'0'`/`'1'` is a bit literal; any other tick is the
                // attribute quote of `clk'event`.
                if matches!(bytes.get(i + 1), Some(b'0' | b'1'))
                    && bytes.get(i + 2) == Some(&b'\'')
                {
                    toks.push((line, Tok::Bit(bytes[i + 1] == b'1')));
                    i += 3;
                } else {
                    toks.push((line, Tok::Tick));
                    i += 1;
                }
            }
            b'(' | b')' | b';' | b',' | b'=' | b'.' => {
                toks.push((line, Tok::Sym(c as char)));
                i += 1;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                toks.push((line, Tok::Id(&src[start..i])));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                toks.push((line, Tok::Num(&src[start..i])));
            }
            other => {
                return Err(parse_err(
                    line,
                    format!("unexpected character `{}`", other as char),
                ));
            }
        }
    }
    Ok(toks)
}

/// Case-insensitive keyword comparison (VHDL keywords are
/// case-insensitive).
fn kw_eq(id: &str, kw: &str) -> bool {
    id.eq_ignore_ascii_case(kw)
}

/// Keywords of the subset grammar, rejected as identifiers.
fn is_keyword(s: &str) -> bool {
    const KEYWORDS: &[&str] = &[
        "and", "architecture", "begin", "else", "elsif", "end", "entity", "if", "in",
        "inout", "is", "library", "nand", "nor", "not", "of", "or", "out", "port",
        "process", "signal", "then", "use", "xnor", "xor",
    ];
    KEYWORDS.iter().any(|kw| kw_eq(s, kw))
}

/// Maps a logical-operator keyword to the IR gate kind.
fn logical_op(id: &str) -> Option<GateKind> {
    for (kw, kind) in [
        ("and", GateKind::And),
        ("or", GateKind::Or),
        ("nand", GateKind::Nand),
        ("nor", GateKind::Nor),
        ("xor", GateKind::Xor),
        ("xnor", GateKind::Xnor),
    ] {
        if kw_eq(id, kw) {
            return Some(kind);
        }
    }
    None
}

/// Expression AST; references keep their source line for the
/// clock-as-data diagnostic.
enum Expr {
    Ref(String, usize),
    Lit(bool),
    Not(Box<Expr>),
    Op(GateKind, Vec<Expr>),
}

/// Owned statement list built during parsing; borrowed [`Stmt`]s are
/// materialized from it once every name (including generated temps)
/// has stable storage.
enum OStmt {
    Input { name: String },
    Const { net: String, value: bool },
    Gate { kind: GateKind, net: String, pins: Vec<String> },
    Dff { net: String, init: bool, d: String },
    Output { name: String },
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Dir {
    In,
    Out,
}

/// Token-stream cursor with line-carrying errors.
struct Parser<'a> {
    toks: Vec<(usize, Tok<'a>)>,
    pos: usize,
    /// Line reported for unexpected end-of-file.
    eof_line: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<(usize, Tok<'a>)> {
        self.toks.get(self.pos).copied()
    }

    fn next(&mut self) -> Result<(usize, Tok<'a>), NetlistError> {
        let t = self
            .peek()
            .ok_or_else(|| parse_err(self.eof_line, "unexpected end of file"))?;
        self.pos += 1;
        Ok(t)
    }

    fn line(&self) -> usize {
        self.peek().map_or(self.eof_line, |(l, _)| l)
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some((_, Tok::Id(id))) if kw_eq(id, kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            return true;
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<usize, NetlistError> {
        let Some((line, tok)) = self.peek() else {
            return Err(parse_err(
                self.eof_line,
                format!("expected `{kw}`, found end of file"),
            ));
        };
        self.pos += 1;
        match tok {
            Tok::Id(id) if kw_eq(id, kw) => Ok(line),
            other => Err(parse_err(line, format!("expected `{kw}`, found {}", show(other)))),
        }
    }

    fn eat_sym(&mut self, sym: char) -> bool {
        if let Some((_, Tok::Sym(c))) = self.peek() {
            if c == sym {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_sym(&mut self, sym: char) -> Result<(), NetlistError> {
        let Some((line, tok)) = self.peek() else {
            return Err(parse_err(
                self.eof_line,
                format!("expected `{sym}`, found end of file"),
            ));
        };
        self.pos += 1;
        match tok {
            Tok::Sym(c) if c == sym => Ok(()),
            other => Err(parse_err(line, format!("expected `{sym}`, found {}", show(other)))),
        }
    }

    fn expect_tok(&mut self, want: Tok<'_>, what: &str) -> Result<(), NetlistError> {
        let Some((line, tok)) = self.peek() else {
            return Err(parse_err(
                self.eof_line,
                format!("expected {what}, found end of file"),
            ));
        };
        self.pos += 1;
        if tok == want {
            Ok(())
        } else {
            Err(parse_err(line, format!("expected {what}, found {}", show(tok))))
        }
    }

    /// A port/signal/entity identifier; keywords are rejected.
    fn ident(&mut self) -> Result<(&'a str, usize), NetlistError> {
        let (line, tok) = self.next()?;
        match tok {
            Tok::Id(id) if !is_keyword(id) => Ok((id, line)),
            Tok::Id(id) => Err(parse_err(
                line,
                format!("`{id}` is a keyword and cannot be used as a name"),
            )),
            other => Err(parse_err(line, format!("expected a name, found {}", show(other)))),
        }
    }

    /// Parses a logical expression: factors joined by one operator kind
    /// (VHDL's single logical precedence level; mixing requires
    /// parentheses, `nand`/`nor` are non-associative).
    fn parse_expr(&mut self, depth: usize) -> Result<Expr, NetlistError> {
        let first = self.parse_factor(depth)?;
        let Some((_, op)) = self.peek_logical_op() else {
            return Ok(first);
        };
        self.pos += 1;
        let mut operands = vec![first, self.parse_factor(depth)?];
        while let Some((line, next_op)) = self.peek_logical_op() {
            if next_op != op {
                return Err(parse_err(
                    line,
                    format!(
                        "mixing `{}` and `{}` requires parentheses",
                        op.mnemonic(),
                        next_op.mnemonic()
                    ),
                ));
            }
            if matches!(op, GateKind::Nand | GateKind::Nor) {
                return Err(parse_err(
                    line,
                    format!("`{}` is not associative; use parentheses", op.mnemonic()),
                ));
            }
            self.pos += 1;
            operands.push(self.parse_factor(depth)?);
        }
        Ok(Expr::Op(op, operands))
    }

    fn peek_logical_op(&self) -> Option<(usize, GateKind)> {
        match self.peek() {
            Some((line, Tok::Id(id))) => logical_op(id).map(|k| (line, k)),
            _ => None,
        }
    }

    fn parse_factor(&mut self, depth: usize) -> Result<Expr, NetlistError> {
        let Some(depth) = depth.checked_sub(1) else {
            return Err(parse_err(
                self.line(),
                format!("expression nested deeper than {MAX_EXPR_DEPTH} levels"),
            ));
        };
        let (line, tok) = self.next()?;
        match tok {
            Tok::Id(id) if kw_eq(id, "not") => {
                Ok(Expr::Not(Box::new(self.parse_factor(depth)?)))
            }
            Tok::Sym('(') => {
                let e = self.parse_expr(depth)?;
                self.expect_sym(')')?;
                Ok(e)
            }
            Tok::Bit(v) => Ok(Expr::Lit(v)),
            Tok::Id(id) if !is_keyword(id) => Ok(Expr::Ref(id.to_owned(), line)),
            other => Err(parse_err(
                line,
                format!("expected an expression, found {}", show(other)),
            )),
        }
    }
}

/// Flattening context: expression trees become gate/const statements
/// over generated `$vhd$t<k>` temporaries (VHDL identifiers cannot
/// contain `$`, so temps never collide with source names).
struct Flat {
    stmts: Vec<(usize, OStmt)>,
    tmp: usize,
    /// Every data reference with its line, for the clock-as-data check.
    refs: Vec<(String, usize)>,
}

impl Flat {
    fn temp(&mut self) -> String {
        let name = format!("$vhd$t{}", self.tmp);
        self.tmp += 1;
        name
    }

    /// Lowers `expr`, returning the net holding its value. With
    /// `target`, the top-level node drives that net directly (a plain
    /// reference becomes a buffer, a literal a constant).
    fn flatten(&mut self, expr: &Expr, line: usize, target: Option<&str>) -> String {
        match expr {
            Expr::Ref(name, rline) => {
                self.refs.push((name.clone(), *rline));
                if let Some(t) = target {
                    self.stmts.push((
                        line,
                        OStmt::Gate {
                            kind: GateKind::Buf,
                            net: t.to_owned(),
                            pins: vec![name.clone()],
                        },
                    ));
                    t.to_owned()
                } else {
                    name.clone()
                }
            }
            Expr::Lit(value) => {
                let net = target.map_or_else(|| self.temp(), str::to_owned);
                self.stmts.push((line, OStmt::Const { net: net.clone(), value: *value }));
                net
            }
            Expr::Not(inner) => {
                let pin = self.flatten(inner, line, None);
                let net = target.map_or_else(|| self.temp(), str::to_owned);
                self.stmts.push((
                    line,
                    OStmt::Gate { kind: GateKind::Not, net: net.clone(), pins: vec![pin] },
                ));
                net
            }
            Expr::Op(kind, operands) => {
                let pins: Vec<String> =
                    operands.iter().map(|o| self.flatten(o, line, None)).collect();
                let net = target.map_or_else(|| self.temp(), str::to_owned);
                self.stmts.push((
                    line,
                    OStmt::Gate { kind: *kind, net: net.clone(), pins },
                ));
                net
            }
        }
    }
}

/// Accepted scalar signal types.
fn check_type(p: &mut Parser<'_>) -> Result<(), NetlistError> {
    let (id, line) = p.ident()?;
    if kw_eq(id, "std_logic") || kw_eq(id, "std_ulogic") || kw_eq(id, "bit") {
        Ok(())
    } else {
        Err(parse_err(
            line,
            format!("unsupported type `{id}` (expected std_logic, std_ulogic or bit)"),
        ))
    }
}

/// Parses the clock condition of a clocked process and returns the
/// clock signal name and its line. Accepted forms:
/// `rising_edge(<clk>)` and `<clk>'event and <clk> = '1'`.
fn parse_clock_condition<'a>(p: &mut Parser<'a>) -> Result<(&'a str, usize), NetlistError> {
    if p.at_kw("rising_edge") {
        p.pos += 1;
        p.expect_sym('(')?;
        let clk = p.ident()?;
        p.expect_sym(')')?;
        return Ok(clk);
    }
    let (clk, cline) = p.ident()?;
    p.expect_tok(Tok::Tick, "`'event`")?;
    let (aline, atok) = p.next()?;
    match atok {
        Tok::Id(id) if kw_eq(id, "event") => {}
        other => {
            return Err(parse_err(
                aline,
                format!("expected `event`, found {}", show(other)),
            ))
        }
    }
    p.expect_kw("and")?;
    let (clk2, l2) = p.ident()?;
    if clk2 != clk {
        return Err(parse_err(
            l2,
            format!("clock condition mixes `{clk}` and `{clk2}`"),
        ));
    }
    p.expect_sym('=')?;
    let (bline, btok) = p.next()?;
    match btok {
        Tok::Bit(true) => {}
        Tok::Bit(false) => {
            return Err(parse_err(
                bline,
                "falling-edge clocks are not supported (expected `= '1'`)",
            ))
        }
        other => {
            return Err(parse_err(
                bline,
                format!("expected `'1'`, found {}", show(other)),
            ))
        }
    }
    Ok((clk, cline))
}

/// Parses VHDL-subset text into a validated [`Netlist`].
///
/// The entity name becomes the netlist name; `in` ports (minus the
/// inferred clock) become primary inputs in declaration order and
/// `out` ports become primary outputs.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for lexical and grammatical errors
/// (unsupported constructs, operator mixing without parentheses,
/// misplaced defaults, clock violations), [`NetlistError::UnknownNet`]
/// for signals never driven, and any validation error from the shared
/// lowering. All parse-layer errors carry 1-based line numbers.
pub fn parse(src: &str) -> Result<Netlist, NetlistError> {
    parse_with(src, lower)
}

/// [`parse`] through the given lowering: the unit tests check the
/// shared lowering against a reference one through here.
pub(crate) fn parse_with(src: &str, lower: Lowering) -> Result<Netlist, NetlistError> {
    let toks = lex(src)?;
    let eof_line = src.lines().count().max(1);
    let mut p = Parser { toks, pos: 0, eof_line };

    // Library and use clauses carry no netlist information; skip them.
    while p.at_kw("library") || p.at_kw("use") {
        loop {
            let (_, tok) = p.next()?;
            if tok == Tok::Sym(';') {
                break;
            }
        }
    }

    // entity <name> is port ( ... ); end [entity] [<name>];
    p.expect_kw("entity")?;
    let (entity_name, _) = p.ident()?;
    p.expect_kw("is")?;
    p.expect_kw("port")?;
    p.expect_sym('(')?;

    // Port name -> (direction, declaration line, `:=` default).
    let mut ports: Vec<(String, Dir, usize, Option<bool>)> = Vec::new();
    let mut known: HashMap<String, usize> = HashMap::new();
    loop {
        let mut group: Vec<(String, usize)> = Vec::new();
        loop {
            let (id, line) = p.ident()?;
            group.push((id.to_owned(), line));
            if p.eat_sym(',') {
                continue;
            }
            break;
        }
        p.expect_sym(':')?;
        let (dline, dtok) = p.next()?;
        let dir = match dtok {
            Tok::Id(id) if kw_eq(id, "in") => Dir::In,
            Tok::Id(id) if kw_eq(id, "out") => Dir::Out,
            Tok::Id(id) if kw_eq(id, "inout") => {
                return Err(parse_err(dline, "`inout` ports are not supported"));
            }
            other => {
                return Err(parse_err(
                    dline,
                    format!("expected `in` or `out`, found {}", show(other)),
                ));
            }
        };
        check_type(&mut p)?;
        let default = if let Some((_, Tok::ColonEq)) = p.peek() {
            p.pos += 1;
            let (bline, btok) = p.next()?;
            match btok {
                Tok::Bit(v) => Some((v, bline)),
                other => {
                    return Err(parse_err(
                        bline,
                        format!("expected `'0'` or `'1'` after `:=`, found {}", show(other)),
                    ));
                }
            }
        } else {
            None
        };
        for (name, line) in group {
            if dir == Dir::In {
                if let Some((_, bline)) = default {
                    return Err(parse_err(
                        bline,
                        format!("default value on input port `{name}` is not supported"),
                    ));
                }
            }
            if known.insert(name.clone(), line).is_some() {
                return Err(parse_err(line, format!("`{name}` declared twice")));
            }
            ports.push((name, dir, line, default.map(|(v, _)| v)));
        }
        if p.eat_sym(';') {
            if p.eat_sym(')') {
                // Tolerate `...; )` — some emitters leave a trailing
                // semicolon before the closing parenthesis.
                break;
            }
            continue;
        }
        p.expect_sym(')')?;
        break;
    }
    p.expect_sym(';')?;
    p.expect_kw("end")?;
    p.eat_kw("entity");
    if matches!(p.peek(), Some((_, Tok::Id(id))) if !is_keyword(id)) {
        p.pos += 1;
    }
    p.expect_sym(';')?;

    // architecture <arch> of <entity> is <signal decls> begin
    p.expect_kw("architecture")?;
    p.ident()?;
    p.expect_kw("of")?;
    let (of_name, of_line) = p.ident()?;
    if of_name != entity_name {
        return Err(parse_err(
            of_line,
            format!("architecture is of `{of_name}` but the entity is `{entity_name}`"),
        ));
    }
    p.expect_kw("is")?;

    // Signal name -> (declaration line, default).
    let mut signals: HashMap<String, (usize, Option<(bool, usize)>)> = HashMap::new();
    let mut signal_order: Vec<String> = Vec::new();
    while p.eat_kw("signal") {
        let mut group: Vec<(String, usize)> = Vec::new();
        loop {
            let (id, line) = p.ident()?;
            group.push((id.to_owned(), line));
            if p.eat_sym(',') {
                continue;
            }
            break;
        }
        p.expect_sym(':')?;
        check_type(&mut p)?;
        let default = if let Some((_, Tok::ColonEq)) = p.peek() {
            p.pos += 1;
            let (bline, btok) = p.next()?;
            match btok {
                Tok::Bit(v) => Some((v, bline)),
                other => {
                    return Err(parse_err(
                        bline,
                        format!("expected `'0'` or `'1'` after `:=`, found {}", show(other)),
                    ));
                }
            }
        } else {
            None
        };
        p.expect_sym(';')?;
        for (name, line) in group {
            if known.insert(name.clone(), line).is_some() {
                return Err(parse_err(line, format!("`{name}` declared twice")));
            }
            signals.insert(name.clone(), (line, default));
            signal_order.push(name);
        }
    }
    p.expect_kw("begin")?;

    // Concurrent statements: `<target> <= <expr>;` and clocked
    // processes.
    let mut flat = Flat { stmts: Vec::new(), tmp: 0, refs: Vec::new() };
    let mut clock: Option<(String, usize)> = None;
    let mut ff_targets: HashSet<String> = HashSet::new();
    let port_default = |ports: &[(String, Dir, usize, Option<bool>)], name: &str| {
        ports
            .iter()
            .find(|(n, ..)| n == name)
            .and_then(|(_, _, _, d)| *d)
    };
    loop {
        if p.at_kw("end") {
            break;
        }
        if p.eat_kw("process") {
            // process (<sensitivity>) [is] begin if <clock-cond> then
            p.expect_sym('(')?;
            loop {
                p.ident()?;
                if p.eat_sym(',') {
                    continue;
                }
                p.expect_sym(')')?;
                break;
            }
            p.eat_kw("is");
            p.expect_kw("begin")?;
            p.expect_kw("if")?;
            let (clk, cline) = parse_clock_condition(&mut p)?;
            p.expect_kw("then")?;
            match &clock {
                None => clock = Some((clk.to_owned(), cline)),
                Some((prev, _)) if prev == clk => {}
                Some((prev, _)) => {
                    return Err(parse_err(
                        cline,
                        format!("process clocked by `{clk}`, but `{prev}` is already the clock"),
                    ));
                }
            }
            // Registered assignments until `end if`.
            loop {
                if p.eat_kw("end") {
                    let (eline, etok) = p.next()?;
                    match etok {
                        Tok::Id(id) if kw_eq(id, "if") => {}
                        other => {
                            return Err(parse_err(
                                eline,
                                format!("expected `if` after `end`, found {}", show(other)),
                            ));
                        }
                    }
                    p.expect_sym(';')?;
                    break;
                }
                if p.at_kw("elsif") || p.at_kw("else") {
                    return Err(parse_err(
                        p.line(),
                        "`elsif`/`else` branches are not supported in clocked processes",
                    ));
                }
                let (tgt, tline) = p.ident()?;
                p.expect_tok(Tok::LArrow, "`<=`")?;
                let expr = p.parse_expr(MAX_EXPR_DEPTH)?;
                p.expect_sym(';')?;
                let init = signals
                    .get(tgt)
                    .and_then(|(_, d)| d.map(|(v, _)| v))
                    .or_else(|| port_default(&ports, tgt))
                    .unwrap_or(false);
                let d_net = flat.flatten(&expr, tline, None);
                ff_targets.insert(tgt.to_owned());
                flat.stmts.push((
                    tline,
                    OStmt::Dff { net: tgt.to_owned(), init, d: d_net },
                ));
            }
            p.expect_kw("end")?;
            p.expect_kw("process")?;
            if matches!(p.peek(), Some((_, Tok::Id(id))) if !is_keyword(id)) {
                p.pos += 1;
            }
            p.expect_sym(';')?;
            continue;
        }
        let (tgt, tline) = p.ident()?;
        p.expect_tok(Tok::LArrow, "`<=`")?;
        let expr = p.parse_expr(MAX_EXPR_DEPTH)?;
        p.expect_sym(';')?;
        flat.flatten(&expr, tline, Some(tgt));
    }

    // end [architecture] [<arch>]; then end of file.
    p.expect_kw("end")?;
    p.eat_kw("architecture");
    if matches!(p.peek(), Some((_, Tok::Id(id))) if !is_keyword(id)) {
        p.pos += 1;
    }
    p.expect_sym(';')?;
    if let Some((line, tok)) = p.peek() {
        return Err(parse_err(
            line,
            format!("content after the architecture body: {}", show(tok)),
        ));
    }

    // The clock must be an `in` port and never read as data.
    if let Some((clk, cline)) = &clock {
        match ports.iter().find(|(n, ..)| n == clk) {
            Some((_, Dir::In, ..)) => {}
            Some((_, Dir::Out, ..)) => {
                return Err(parse_err(
                    *cline,
                    format!("clock `{clk}` must be an `in` port, not an output"),
                ));
            }
            None => {
                return Err(parse_err(
                    *cline,
                    format!("clock `{clk}` is not an entity port"),
                ));
            }
        }
        if let Some((_, rline)) = flat.refs.iter().find(|(name, _)| name == clk) {
            return Err(parse_err(
                *rline,
                format!("clock `{clk}` cannot be used as data"),
            ));
        }
    }

    // `:=` defaults are flip-flop power-on values; reject them on nets
    // that never became registers.
    for name in &signal_order {
        let (_, default) = &signals[name];
        if let Some((_, bline)) = default {
            if !ff_targets.contains(name) {
                return Err(parse_err(
                    *bline,
                    format!("`{name}` has a default value but is not registered in a clocked process"),
                ));
            }
        }
    }
    for (name, dir, line, default) in &ports {
        if *dir == Dir::Out && default.is_some() && !ff_targets.contains(name) {
            return Err(parse_err(
                *line,
                format!("`{name}` has a default value but is not registered in a clocked process"),
            ));
        }
    }

    // Assemble in lowering order: inputs (port order, clock excluded),
    // body statements (source order), outputs (port order).
    let clock_name = clock.as_ref().map(|(n, _)| n.as_str());
    let mut owned: Vec<(usize, OStmt)> = Vec::new();
    for (name, dir, line, _) in &ports {
        if *dir == Dir::In && Some(name.as_str()) != clock_name {
            owned.push((*line, OStmt::Input { name: name.clone() }));
        }
    }
    owned.append(&mut flat.stmts);
    for (name, dir, line, _) in &ports {
        if *dir == Dir::Out {
            owned.push((*line, OStmt::Output { name: name.clone() }));
        }
    }

    let mut stmts = Stmts::default();
    for &(line, ref s) in &owned {
        match s {
            OStmt::Input { name } => stmts.push(line, Stmt::Input { name }),
            OStmt::Const { net, value } => stmts.push(line, Stmt::Const { net, value: *value }),
            OStmt::Gate { kind, net, pins } => {
                stmts.gate(line, *kind, net, pins.iter().map(String::as_str));
            }
            OStmt::Dff { net, init, d } => stmts.push(line, Stmt::Dff { net, init: *init, d }),
            OStmt::Output { name } => stmts.push(line, Stmt::Output { name, net: name }),
        }
    }
    lower(entity_name.to_owned(), &stmts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    const TOGGLE: &str = "\
-- enabled toggle bit
library ieee;
use ieee.std_logic_1164.all;

entity toggle is
  port (
    clk : in  std_logic;
    en  : in  std_logic;
    q   : out std_logic
  );
end toggle;

architecture rtl of toggle is
  signal q_i : std_logic := '1';
  signal nx  : std_logic;
begin
  nx <= en xor q_i;
  q  <= q_i;

  process (clk)
  begin
    if rising_edge(clk) then
      q_i <= nx;
    end if;
  end process;
end rtl;
";

    #[test]
    fn parses_toggle() {
        let n = parse(TOGGLE).unwrap();
        assert_eq!(n.name(), "toggle");
        assert_eq!(n.num_inputs(), 1, "clk must be excluded");
        assert_eq!(n.input_names(), &["en"]);
        assert_eq!(n.num_outputs(), 1);
        assert_eq!(n.num_ffs(), 1);
        assert_eq!(n.ff_init_values(), vec![true]);
    }

    #[test]
    fn event_form_clock_and_case_insensitive_keywords() {
        let src = "\
ENTITY t IS
  PORT (CK : IN STD_LOGIC; A : IN STD_LOGIC; Y : OUT STD_LOGIC);
END t;
ARCHITECTURE beh OF t IS
BEGIN
  PROCESS (CK)
  BEGIN
    IF CK'event AND CK = '1' THEN
      Y <= NOT A;
    END IF;
  END PROCESS;
END beh;
";
        let n = parse(src).unwrap();
        assert_eq!(n.num_inputs(), 1);
        assert_eq!(n.num_ffs(), 1);
    }

    #[test]
    fn same_op_chains_lower_to_wide_gates() {
        let src = "\
entity c is
  port (a : in std_logic; b : in std_logic; d : in std_logic; y : out std_logic);
end c;
architecture rtl of c is
begin
  y <= a and b and d;
end rtl;
";
        let n = parse(src).unwrap();
        assert_eq!(n.num_gates(), 1);
        let (_, sig) = &n.outputs()[0];
        assert_eq!(n.cell(*sig).pins().len(), 3);
    }

    #[test]
    fn agrees_with_the_snl_twin() {
        let snl = "\
model toggle
input en
dff q_i 1 nx
gate xor nx en q_i
output q q_i
end
";
        let v = parse(TOGGLE).unwrap();
        let s = crate::text::parse(snl).unwrap();
        testutil::assert_agree(&v, &s, 0x7777, 32);
    }

    #[test]
    fn parenthesized_mixing_and_literals() {
        let src = "\
entity m is
  port (a : in std_logic; b : in std_logic; y : out std_logic);
end m;
architecture rtl of m is
  signal t : std_logic;
begin
  t <= (a and b) or (not a and '1');
  y <= t nand b;
end rtl;
";
        let n = parse(src).unwrap();
        assert_eq!(n.num_outputs(), 1);
        assert!(n.num_gates() >= 4);
    }

    #[test]
    fn operator_misuse_is_rejected() {
        let wrap = |expr: &str| {
            format!(
                "entity e is\n  port (a : in std_logic; b : in std_logic; c : in std_logic; y : out std_logic);\nend e;\narchitecture r of e is\nbegin\n  y <= {expr};\nend r;\n"
            )
        };
        let err = parse(&wrap("a and b or c")).unwrap_err();
        assert!(err.to_string().contains("requires parentheses"), "{err}");
        assert_eq!(err.line(), Some(6));
        let err = parse(&wrap("a nand b nand c")).unwrap_err();
        assert!(err.to_string().contains("not associative"), "{err}");
    }

    #[test]
    fn deep_nesting_is_capped_not_a_stack_overflow() {
        let bomb = format!(
            "entity e is\n  port (a : in std_logic; y : out std_logic);\nend e;\narchitecture r of e is\nbegin\n  y <= {}a{};\nend r;\n",
            "(".repeat(100_000),
            ")".repeat(100_000)
        );
        let err = parse(&bomb).unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
        assert!(err.line().is_some());
    }

    #[test]
    fn clock_violations_are_rejected() {
        // Clock used as data.
        let src = "\
entity e is
  port (clk : in std_logic; a : in std_logic; y : out std_logic);
end e;
architecture r of e is
begin
  y <= a and clk;
  process (clk)
  begin
    if rising_edge(clk) then
      y <= a;
    end if;
  end process;
end r;
";
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("cannot be used as data"), "{err}");
        assert_eq!(err.line(), Some(6));
        // Two different clocks.
        let src = "\
entity e is
  port (c1 : in std_logic; c2 : in std_logic; a : in std_logic; y : out std_logic; z : out std_logic);
end e;
architecture r of e is
begin
  process (c1)
  begin
    if rising_edge(c1) then
      y <= a;
    end if;
  end process;
  process (c2)
  begin
    if rising_edge(c2) then
      z <= a;
    end if;
  end process;
end r;
";
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("already the clock"), "{err}");
        // Clock is not a port.
        let src = "\
entity e is
  port (a : in std_logic; y : out std_logic);
end e;
architecture r of e is
  signal k : std_logic;
begin
  k <= a;
  process (k)
  begin
    if rising_edge(k) then
      y <= a;
    end if;
  end process;
end r;
";
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("not an entity port"), "{err}");
    }

    #[test]
    fn misplaced_defaults_are_rejected() {
        let src = "\
entity e is
  port (a : in std_logic; y : out std_logic);
end e;
architecture r of e is
  signal t : std_logic := '1';
begin
  t <= not a;
  y <= t;
end r;
";
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("not registered"), "{err}");
        assert_eq!(err.line(), Some(5));
        let err = parse(
            "entity e is\n  port (a : in std_logic := '1'; y : out std_logic);\nend e;\narchitecture r of e is\nbegin\n  y <= a;\nend r;\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("input port"), "{err}");
    }

    #[test]
    fn malformed_sources_rejected_with_lines() {
        for (src, needle) in [
            ("signal x;\n", "expected `entity`"),
            ("entity e is\n  port (a : in std_logic);\nend e;\n", "expected `architecture`"),
            (
                "entity e is\n  port (a : in frob; y : out std_logic);\nend e;\narchitecture r of e is\nbegin\n  y <= a;\nend r;\n",
                "unsupported type",
            ),
            (
                "entity e is\n  port (a : inout std_logic);\nend e;\narchitecture r of e is\nbegin\nend r;\n",
                "`inout`",
            ),
            (
                "entity e is\n  port (a : in std_logic; y : out std_logic);\nend e;\narchitecture r of other is\nbegin\n  y <= a;\nend r;\n",
                "entity is `e`",
            ),
            (
                "entity e is\n  port (a : in std_logic; a : in std_logic; y : out std_logic);\nend e;\narchitecture r of e is\nbegin\n  y <= a;\nend r;\n",
                "declared twice",
            ),
            (
                "entity e is\n  port (c : in std_logic; y : out std_logic);\nend e;\narchitecture r of e is\nbegin\n  process (c)\n  begin\n    if falling_edge(c) then\n      y <= c;\n    end if;\n  end process;\nend r;\n",
                "expected `'event`",
            ),
            (
                "entity e is\n  port (c : in std_logic; a : in std_logic; y : out std_logic);\nend e;\narchitecture r of e is\nbegin\n  process (c)\n  begin\n    if c'event and c = '0' then\n      y <= a;\n    end if;\n  end process;\nend r;\n",
                "falling-edge",
            ),
            (
                "entity e is\n  port (c : in std_logic; a : in std_logic; y : out std_logic);\nend e;\narchitecture r of e is\nbegin\n  process (c)\n  begin\n    if rising_edge(c) then\n      y <= a;\n    elsif a = '1' then\n      y <= a;\n    end if;\n  end process;\nend r;\n",
                "not supported",
            ),
            (
                "entity e is\n  port (a : in std_logic; y : out std_logic);\nend e;\narchitecture r of e is\nbegin\n  y <= a;\nend r;\nentity f is\n",
                "content after",
            ),
            (
                "entity e is\n  port (a : in std_logic; y : out std_logic);\nend e;\narchitecture r of e is\nbegin\n  y <= a +\n",
                "unexpected character",
            ),
            (
                "entity e is\n  port (a : in std_logic; y : out std_logic);\nend e;\narchitecture r of e is\nbegin\n  y <= 5;\nend r;\n",
                "expected an expression",
            ),
            (
                "entity e is\n  port (end : in std_logic);\nend e;\n",
                "keyword",
            ),
            (
                "entity e is\n  port (a : in std_logic; y : out std_logic);\nend e;\narchitecture r of e is\nbegin\n  y <= a;\n",
                "unexpected end of file",
            ),
        ] {
            let err = parse(src).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "`{src}` → `{err}` (wanted `{needle}`)"
            );
            let max_line = src.lines().count() + 1;
            let line = err.line().unwrap_or(1);
            assert!(line >= 1 && line <= max_line, "line {line} out of range for `{src}`");
        }
    }

    #[test]
    fn undriven_output_reports_unknown_net() {
        let src = "\
entity e is
  port (a : in std_logic; y : out std_logic);
end e;
architecture r of e is
begin
end r;
";
        let err = parse(src).unwrap_err();
        assert!(
            matches!(err, NetlistError::UnknownNet { ref name, .. } if name == "y"),
            "{err}"
        );
    }
}
