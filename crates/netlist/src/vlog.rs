//! Structural Verilog frontend and emitter.
//!
//! The subset is the gate-level netlist dialect that synthesis tools
//! emit (and that the ISCAS/ITC benchmark translations circulate in):
//! one module, scalar ports and wires, primitive gate instantiations
//! and D flip-flop cells. No behavioral constructs, no vectors, no
//! hierarchy.
//!
//! ```text
//! // comment         /* block comment */
//! module s27 (G0, G1, G17);
//!   input G0, G1;
//!   output G17;
//!   wire G5, n1;
//!   and u1 (n1, G0, G1);          // instance name optional
//!   not (G17, G5);
//!   (* init = 1'b1 *) dff (G5, n1); // q, d; power-on value via attribute
//!   assign G5x = 1'b0;            // constant driver
//!   assign G17b = n1;             // buffer alias
//! endmodule
//! ```
//!
//! Supported primitives: `and`, `or`, `nand`, `nor`, `xor`, `xnor`
//! (n-ary), `not`, `buf` (one output, one input), plus the dialect
//! extensions `mux (y, sel, d0, d1)` and `dff (q, d)`. The clock is
//! implicit — `dff` has no clock pin, matching the IR's single global
//! clock — and a `(* init = 0|1|1'b0|1'b1 *)` attribute immediately
//! before a `dff` sets its power-on value. Connections are positional;
//! named port connections (`.q(x)`) and escaped identifiers are not
//! supported. Undeclared nets driven by gates are accepted (implicit
//! scalar wires, as in real Verilog); header ports must be declared
//! `input` or `output` exactly once.
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
//! module toggle (en, q);
//!   input en;
//!   output q;
//!   wire nx;
//!   xor (nx, en, q);
//!   dff (q, nx);
//! endmodule
//! ";
//! let n = seugrade_netlist::vlog::parse(src)?;
//! assert_eq!(n.num_ffs(), 1);
//! let text = seugrade_netlist::vlog::emit(&n);
//! let back = seugrade_netlist::vlog::parse(&text)?;
//! assert_eq!(back.num_ffs(), 1);
//! # Ok::<(), seugrade_netlist::NetlistError>(())
//! ```

use std::collections::HashMap;

use crate::ident::EmitNames;
use crate::import::{lower, Lowering, Stmt, Stmts};
use crate::{CellKind, GateKind, Netlist, NetlistError};

/// Serializes a netlist to the structural Verilog subset — the emitter
/// pairing [`parse`].
///
/// Inputs keep their port names and — unlike `.bench`/BLIF — output
/// port *names* survive: every port is declared `output` and driven by
/// an `assign` from its net (the resulting buffer is swept away on
/// re-import). Names that are Verilog keywords or contain characters
/// outside `[A-Za-z0-9_$]` are rewritten by the shared
/// escaping pass (`ident`). Internal nets use stable `n<i>` ids;
/// flip-flops carry `(* init = 1'b1 *)` attributes for non-zero
/// power-on values.
#[must_use]
pub fn emit(netlist: &Netlist) -> String {
    let mut out = String::new();
    // Formatting into a `String` cannot fail; `emit_into` threads
    // `fmt::Result` anyway so the body stays `?`-based with a single
    // audited expect at this boundary instead of an unwrap per line.
    emit_into(netlist, &mut out).expect("formatting into a String never fails");
    out
}

/// The `?`-based body of [`emit`], writing to any [`fmt::Write`] sink.
fn emit_into(netlist: &Netlist, out: &mut impl std::fmt::Write) -> std::fmt::Result {
    let mut names = EmitNames::new(netlist, crate::ident::vlog_legal);
    let module = crate::ident::legalize(netlist.name(), crate::ident::vlog_legal);
    let in_tokens: Vec<String> =
        netlist.inputs().iter().map(|&s| names.token(s).to_owned()).collect();
    // Output ports are first-class nets in Verilog, so their names join
    // the net namespace and are deduplicated against it.
    let out_ports: Vec<String> =
        netlist.outputs().iter().map(|(name, _)| names.fresh(name)).collect();
    writeln!(out, "// {} (emitted by seugrade-netlist)", netlist.name())?;
    let ports: Vec<&str> =
        in_tokens.iter().chain(out_ports.iter()).map(String::as_str).collect();
    if ports.is_empty() {
        writeln!(out, "module {module};")?;
    } else {
        writeln!(out, "module {module} ({});", ports.join(", "))?;
    }
    for t in &in_tokens {
        writeln!(out, "  input {t};")?;
    }
    for t in &out_ports {
        writeln!(out, "  output {t};")?;
    }
    for (id, cell) in netlist.iter_cells() {
        if !matches!(cell.kind(), CellKind::Input) {
            writeln!(out, "  wire {};", names.token(id))?;
        }
    }
    for (id, cell) in netlist.iter_cells() {
        match cell.kind() {
            CellKind::Input => {}
            CellKind::Const(v) => {
                writeln!(out, "  assign {} = 1'b{};", names.token(id), u8::from(v))?;
            }
            CellKind::Gate(kind) => {
                let pins: Vec<&str> = cell.pins().iter().map(|&p| names.token(p)).collect();
                writeln!(out, "  {} ({}, {});", kind.mnemonic(), names.token(id), pins.join(", "))?;
            }
            CellKind::Dff { init } => {
                let attr = if init { "(* init = 1'b1 *) " } else { "" };
                writeln!(
                    out,
                    "  {attr}dff ({}, {});",
                    names.token(id),
                    names.token(cell.pins()[0])
                )?;
            }
        }
    }
    for ((name, sig), port) in netlist.outputs().iter().zip(&out_ports) {
        let _ = name;
        writeln!(out, "  assign {port} = {};", names.token(*sig))?;
    }
    writeln!(out, "endmodule")
}

/// One lexical token; identifiers borrow from the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tok<'a> {
    /// Identifier or keyword.
    Id(&'a str),
    /// One of `( ) , ; =`.
    Sym(char),
    /// `(*`
    AttrOpen,
    /// `*)`
    AttrClose,
    /// `0`, `1`, `1'b0`, `1'b1`.
    Lit(bool),
}

fn parse_err(line: usize, msg: impl Into<String>) -> NetlistError {
    NetlistError::Parse { line, msg: msg.into() }
}

/// Tokenizes the source, tracking 1-based lines through `//` and
/// `/* */` comments.
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
            b'/' => match bytes.get(i + 1) {
                Some(b'/') => {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                }
                Some(b'*') => {
                    let start = line;
                    i += 2;
                    loop {
                        if i + 1 >= bytes.len() {
                            return Err(parse_err(start, "unterminated `/*` comment"));
                        }
                        if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                            i += 2;
                            break;
                        }
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                _ => return Err(parse_err(line, "unexpected `/`")),
            },
            b'(' => {
                if bytes.get(i + 1) == Some(&b'*') {
                    toks.push((line, Tok::AttrOpen));
                    i += 2;
                } else {
                    toks.push((line, Tok::Sym('(')));
                    i += 1;
                }
            }
            b'*' => {
                if bytes.get(i + 1) == Some(&b')') {
                    toks.push((line, Tok::AttrClose));
                    i += 2;
                } else {
                    return Err(parse_err(line, "unexpected `*`"));
                }
            }
            b')' | b',' | b';' | b'=' => {
                toks.push((line, Tok::Sym(c as char)));
                i += 1;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
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
                let width = &src[start..i];
                let value = if bytes.get(i) == Some(&b'\'') {
                    if width != "1" {
                        return Err(parse_err(
                            line,
                            format!("only 1-bit literals are supported, found width `{width}`"),
                        ));
                    }
                    if !matches!(bytes.get(i + 1), Some(b'b' | b'B')) {
                        return Err(parse_err(line, "expected `b` after `1'` in literal"));
                    }
                    let bit = match bytes.get(i + 2) {
                        Some(b'0') => false,
                        Some(b'1') => true,
                        _ => {
                            return Err(parse_err(
                                line,
                                "expected `0` or `1` after `1'b` in literal",
                            ))
                        }
                    };
                    i += 3;
                    bit
                } else {
                    match width {
                        "0" => false,
                        "1" => true,
                        other => {
                            return Err(parse_err(
                                line,
                                format!("unsupported numeric literal `{other}`"),
                            ))
                        }
                    }
                };
                if i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
                {
                    return Err(parse_err(line, "malformed literal"));
                }
                toks.push((line, Tok::Lit(value)));
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

/// Keywords of the subset grammar (kept in sync with the emitter's
/// escaping rules in [`crate::ident`]).
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "module" | "endmodule" | "input" | "output" | "inout" | "wire" | "reg" | "assign"
    ) || prim_kind(s).is_some()
        || s == "dff"
}

/// Maps a primitive keyword to the IR gate kind (`dff` handled apart).
fn prim_kind(s: &str) -> Option<GateKind> {
    match s {
        "and" => Some(GateKind::And),
        "or" => Some(GateKind::Or),
        "nand" => Some(GateKind::Nand),
        "nor" => Some(GateKind::Nor),
        "xor" => Some(GateKind::Xor),
        "xnor" => Some(GateKind::Xnor),
        "not" => Some(GateKind::Not),
        "buf" => Some(GateKind::Buf),
        "mux" => Some(GateKind::Mux),
        _ => None,
    }
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
        let (line, tok) = self.next()?;
        match tok {
            Tok::Sym(c) if c == sym => Ok(()),
            other => Err(parse_err(line, format!("expected `{sym}`, found {}", show(other)))),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<usize, NetlistError> {
        let (line, tok) = self.next()?;
        match tok {
            Tok::Id(id) if id == kw => Ok(line),
            other => Err(parse_err(line, format!("expected `{kw}`, found {}", show(other)))),
        }
    }

    /// A net/port/module identifier; keywords are rejected here so a
    /// stray statement keyword inside a pin list gets a clear message.
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
}

/// Human-readable token for error messages.
fn show(tok: Tok<'_>) -> String {
    match tok {
        Tok::Id(id) => format!("`{id}`"),
        Tok::Sym(c) => format!("`{c}`"),
        Tok::AttrOpen => "`(*`".into(),
        Tok::AttrClose => "`*)`".into(),
        Tok::Lit(v) => format!("literal `1'b{}`", u8::from(v)),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Decl {
    Input,
    Output,
    Wire,
}

/// Parses structural Verilog text into a validated [`Netlist`].
///
/// The module name becomes the netlist name.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for lexical and grammatical errors
/// (unknown primitives, undeclared header ports, misplaced attributes,
/// malformed literals), [`NetlistError::UnknownNet`] for references to
/// nets never driven, and any validation error from the shared lowering
/// (combinational loops, duplicate definitions, dangling ports). All
/// parse-layer errors carry 1-based line numbers.
pub fn parse(src: &str) -> Result<Netlist, NetlistError> {
    parse_with(src, lower)
}

/// [`parse`] through the given lowering: the unit tests check the
/// shared lowering against a reference one through here.
pub(crate) fn parse_with(src: &str, lower: Lowering) -> Result<Netlist, NetlistError> {
    let toks = lex(src)?;
    let eof_line = src.lines().count().max(1);
    let mut p = Parser { toks, pos: 0, eof_line };

    p.keyword("module")?;
    let (module_name, _) = p.ident()?;
    let mut header: Vec<(&str, usize)> = Vec::new();
    if p.eat_sym('(') && !p.eat_sym(')') {
        loop {
            let (id, line) = p.ident()?;
            header.push((id, line));
            if p.eat_sym(',') {
                continue;
            }
            p.expect_sym(')')?;
            break;
        }
    }
    p.expect_sym(';')?;

    let mut decls: HashMap<&str, (Decl, usize)> = HashMap::new();
    let mut body = Stmts::default();
    let mut pending_init: Option<(bool, usize)> = None;

    loop {
        let Some((line, tok)) = p.peek() else {
            return Err(parse_err(
                p.eof_line,
                format!("file ends inside module `{module_name}` (missing `endmodule`)"),
            ));
        };
        // Everything except a `dff` instance invalidates a pending
        // `(* init *)` attribute.
        let must_be_dff = pending_init.is_some();
        match tok {
            Tok::Id("endmodule") => {
                if let Some((_, aline)) = pending_init {
                    return Err(parse_err(
                        aline,
                        "`(* init *)` attribute is not followed by a dff instance",
                    ));
                }
                p.pos += 1;
                break;
            }
            Tok::Id(kw @ ("input" | "output" | "wire")) => {
                if must_be_dff {
                    let (_, aline) = pending_init.expect("checked");
                    return Err(parse_err(
                        aline,
                        "`(* init *)` attribute must immediately precede a dff instance",
                    ));
                }
                p.pos += 1;
                let decl = match kw {
                    "input" => Decl::Input,
                    "output" => Decl::Output,
                    _ => Decl::Wire,
                };
                loop {
                    let (id, dline) = p.ident()?;
                    if decls.insert(id, (decl, dline)).is_some() {
                        return Err(parse_err(dline, format!("`{id}` declared twice")));
                    }
                    if p.eat_sym(',') {
                        continue;
                    }
                    p.expect_sym(';')?;
                    break;
                }
            }
            Tok::Id("assign") => {
                if must_be_dff {
                    let (_, aline) = pending_init.expect("checked");
                    return Err(parse_err(
                        aline,
                        "`(* init *)` attribute must immediately precede a dff instance",
                    ));
                }
                p.pos += 1;
                let (target, tline) = p.ident()?;
                p.expect_sym('=')?;
                let (rline, rhs) = p.next()?;
                match rhs {
                    Tok::Lit(value) => body.push(tline, Stmt::Const { net: target, value }),
                    Tok::Id(id) if !is_keyword(id) => body.gate(tline, GateKind::Buf, target, [id]),
                    other => {
                        return Err(parse_err(
                            rline,
                            format!(
                                "assign expects a net or 1-bit literal, found {}",
                                show(other)
                            ),
                        ));
                    }
                }
                p.expect_sym(';')?;
            }
            Tok::AttrOpen => {
                p.pos += 1;
                let (aline, atok) = p.next()?;
                let name = match atok {
                    Tok::Id(id) => id,
                    other => {
                        return Err(parse_err(
                            aline,
                            format!("expected an attribute name, found {}", show(other)),
                        ))
                    }
                };
                if name != "init" {
                    return Err(parse_err(
                        aline,
                        format!("unknown attribute `{name}` (expected `init`)"),
                    ));
                }
                p.expect_sym('=')?;
                let (vline, vtok) = p.next()?;
                let value = match vtok {
                    Tok::Lit(v) => v,
                    other => {
                        return Err(parse_err(
                            vline,
                            format!("init expects `0`, `1`, `1'b0` or `1'b1`, found {}", show(other)),
                        ))
                    }
                };
                let (cline, ctok) = p.next()?;
                if ctok != Tok::AttrClose {
                    return Err(parse_err(
                        cline,
                        format!("expected `*)`, found {}", show(ctok)),
                    ));
                }
                if pending_init.replace((value, aline)).is_some() {
                    return Err(parse_err(aline, "duplicate `(* init *)` attribute"));
                }
            }
            Tok::Id("dff") => {
                p.pos += 1;
                let args = instance_args(&mut p)?;
                if args.len() != 2 {
                    return Err(parse_err(
                        line,
                        format!("dff takes exactly (q, d), got {} pins", args.len()),
                    ));
                }
                let init = pending_init.take().map_or(false, |(v, _)| v);
                body.push(line, Stmt::Dff { net: args[0], init, d: args[1] });
            }
            Tok::Id(word) => {
                let Some(kind) = prim_kind(word) else {
                    return Err(parse_err(
                        line,
                        format!("unknown statement or primitive `{word}`"),
                    ));
                };
                if must_be_dff {
                    let (_, aline) = pending_init.expect("checked");
                    return Err(parse_err(
                        aline,
                        "`(* init *)` attribute must immediately precede a dff instance",
                    ));
                }
                p.pos += 1;
                let args = instance_args(&mut p)?;
                if args.len() < 2 {
                    return Err(parse_err(
                        line,
                        format!("`{word}` needs an output and at least one input"),
                    ));
                }
                let pins = &args[1..];
                let (min, max) = kind.arity();
                // Degenerate 1-input AND/OR/… collapse to buffers in the
                // builder, matching the `.bench` frontend's convention.
                let collapsible = min == 2 && pins.len() == 1;
                if pins.len() > max || (pins.len() < min && !collapsible) {
                    return Err(parse_err(
                        line,
                        format!("`{word}` given {} inputs", pins.len()),
                    ));
                }
                body.gate(line, kind, args[0], pins.iter().copied());
            }
            other => {
                return Err(parse_err(
                    line,
                    format!("expected a statement, found {}", show(other)),
                ));
            }
        }
    }

    if let Some((line, tok)) = p.peek() {
        let msg = if tok == Tok::Id("module") {
            "only one module per file is supported".to_owned()
        } else {
            format!("content after `endmodule`: {}", show(tok))
        };
        return Err(parse_err(line, msg));
    }

    // Header/declaration consistency: every header port is declared
    // `input` or `output` exactly once, and port declarations name
    // header ports. Wires are optional — undeclared internal nets are
    // implicit, as in real Verilog.
    let header_set: HashMap<&str, usize> = header.iter().copied().collect();
    for (port, hline) in &header {
        match decls.get(port) {
            Some((Decl::Input | Decl::Output, _)) => {}
            Some((Decl::Wire, wline)) => {
                return Err(parse_err(
                    *wline,
                    format!("port `{port}` declared `wire`; expected `input` or `output`"),
                ));
            }
            None => {
                return Err(parse_err(
                    *hline,
                    format!("port `{port}` is never declared `input` or `output`"),
                ));
            }
        }
    }
    for (name, (decl, dline)) in &decls {
        if matches!(decl, Decl::Input | Decl::Output) && !header_set.contains_key(name) {
            return Err(parse_err(
                *dline,
                format!("`{name}` is declared a port but missing from the module header"),
            ));
        }
    }

    // Assemble in lowering order: inputs (header order), body, outputs
    // (header order). Output ports observe their own net, as in
    // `.bench`.
    let mut stmts = Stmts {
        list: Vec::with_capacity(header.len() + body.list.len()),
        pins: body.pins,
        inits: Vec::new(),
    };
    for (port, hline) in &header {
        if matches!(decls[port], (Decl::Input, _)) {
            stmts.push(*hline, Stmt::Input { name: port });
        }
    }
    stmts.list.append(&mut body.list);
    for (port, hline) in &header {
        if matches!(decls[port], (Decl::Output, _)) {
            stmts.push(*hline, Stmt::Output { name: port, net: port });
        }
    }

    lower(module_name.to_owned(), &stmts)
}

/// Parses `[instance_name] ( arg {, arg} ) ;` and returns the args.
fn instance_args<'a>(p: &mut Parser<'a>) -> Result<Vec<&'a str>, NetlistError> {
    // Optional instance name before the pin list.
    if matches!(p.peek(), Some((_, Tok::Id(id))) if !is_keyword(id)) {
        p.pos += 1;
    }
    p.expect_sym('(')?;
    let mut args = Vec::new();
    if !p.eat_sym(')') {
        loop {
            match p.peek() {
                Some((line, Tok::Lit(_))) => {
                    return Err(parse_err(
                        line,
                        "literals are not allowed as pins; drive a net with `assign`",
                    ));
                }
                _ => {
                    let (id, _) = p.ident()?;
                    args.push(id);
                }
            }
            if p.eat_sym(',') {
                continue;
            }
            p.expect_sym(')')?;
            break;
        }
    }
    p.expect_sym(';')?;
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    /// The s27 netlist, translated to the Verilog subset.
    const S27_V: &str = "\
// s27, structural Verilog translation
module s27 (G0, G1, G2, G3, G17);
  input G0, G1, G2, G3;
  output G17;
  wire G5, G6, G7, G8, G9, G10, G11, G12, G13, G14, G15, G16;
  dff q5 (G5, G10);
  dff q6 (G6, G11);
  dff q7 (G7, G13);
  not u14 (G14, G0);
  not u17 (G17, G11);
  and u8 (G8, G14, G6);
  or u15 (G15, G12, G8);
  or u16 (G16, G3, G8);
  nand u9 (G9, G16, G15);
  nor u10 (G10, G14, G11);
  nor u11 (G11, G5, G9);
  nor u12 (G12, G1, G7);
  nor u13 (G13, G2, G12);
endmodule
";

    #[test]
    fn parses_s27() {
        let n = parse(S27_V).unwrap();
        assert_eq!(n.name(), "s27");
        assert_eq!(n.num_inputs(), 4);
        assert_eq!(n.num_outputs(), 1);
        assert_eq!(n.num_ffs(), 3);
        assert_eq!(n.num_gates(), 10);
        assert_eq!(n.input_names(), &["G0", "G1", "G2", "G3"]);
    }

    #[test]
    fn agrees_with_the_bench_twin() {
        let bench = "\
INPUT(G0)\nINPUT(G1)\nINPUT(G2)\nINPUT(G3)\nOUTPUT(G17)
G5 = DFF(G10)\nG6 = DFF(G11)\nG7 = DFF(G13)
G14 = NOT(G0)\nG17 = NOT(G11)\nG8 = AND(G14, G6)
G15 = OR(G12, G8)\nG16 = OR(G3, G8)\nG9 = NAND(G16, G15)
G10 = NOR(G14, G11)\nG11 = NOR(G5, G9)\nG12 = NOR(G1, G7)\nG13 = NOR(G2, G12)
";
        let v = parse(S27_V).unwrap();
        let b = crate::bench::parse(bench).unwrap();
        testutil::assert_agree(&v, &b, 0x5EED, 32);
    }

    #[test]
    fn init_attribute_and_assign() {
        let src = "\
module t (a, y, z);
  input a;
  output y, z;
  wire nx;
  (* init = 1'b1 *) dff (y, nx);
  xor (nx, a, y);
  assign k1 = 1'b1;
  and (z, y, k1);
endmodule
";
        let n = parse(src).unwrap();
        assert_eq!(n.ff_init_values(), vec![true]);
        // `(* init = 1 *)` plain-digit form also accepted.
        let n = parse(&src.replace("1'b1 *)", "1 *)")).unwrap();
        assert_eq!(n.ff_init_values(), vec![true]);
    }

    #[test]
    fn assign_alias_is_swept_on_import() {
        let src = "\
module t (a, y);
  input a;
  output y;
  wire n1;
  not (n1, a);
  assign y = n1;
endmodule
";
        let n = parse(src).unwrap();
        assert_eq!(n.num_outputs(), 1);
        let imp = crate::import::import_str(src, crate::import::SourceFormat::Verilog).unwrap();
        assert_eq!(imp.stats.swept_buffers, 1);
    }

    #[test]
    fn block_comments_track_lines() {
        let src = "module t (a, y);\n/* multi\nline\ncomment */\n  input a;\n  output y;\n  frob (y, a);\nendmodule\n";
        let err = parse(src).unwrap_err();
        assert_eq!(err.line(), Some(7), "{err}");
        assert!(err.to_string().contains("frob"));
    }

    #[test]
    fn header_and_declaration_mismatches_are_located() {
        // Port never declared.
        let err = parse("module t (a, y);\n  input a;\n  buf (y, a);\nendmodule\n").unwrap_err();
        assert_eq!(err.line(), Some(1));
        assert!(err.to_string().contains("never declared"), "{err}");
        // Declaration missing from header.
        let err =
            parse("module t (a);\n  input a;\n  output y;\n  buf (y, a);\nendmodule\n").unwrap_err();
        assert_eq!(err.line(), Some(3));
        assert!(err.to_string().contains("missing from the module header"), "{err}");
        // Port declared wire.
        let err = parse("module t (a, y);\n  input a;\n  wire y;\n  buf (y, a);\nendmodule\n")
            .unwrap_err();
        assert_eq!(err.line(), Some(3));
        // Duplicate declaration.
        let err = parse("module t (a, y);\n  input a;\n  input a;\n  output y;\n  buf (y, a);\nendmodule\n")
            .unwrap_err();
        assert_eq!(err.line(), Some(3));
        assert!(err.to_string().contains("declared twice"), "{err}");
    }

    #[test]
    fn malformed_sources_rejected_with_lines() {
        for (src, needle) in [
            ("wire w;\n", "expected `module`"),
            ("module t (a, y);\n  input a;\n  output y;\n  buf (y, a);\n", "missing `endmodule`"),
            ("module t;\nendmodule\nmodule u;\nendmodule\n", "one module"),
            ("module t;\nendmodule\nwire w;\n", "content after"),
            ("module t (y);\n  output y;\n  assign y = 2'b01;\nendmodule\n", "1-bit"),
            ("module t (y);\n  output y;\n  assign y = 5;\nendmodule\n", "literal"),
            ("module t (a, y);\n  input a;\n  output y;\n  dff (y, a, a);\nendmodule\n", "dff takes"),
            ("module t (a, y);\n  input a;\n  output y;\n  (* init = 1 *) not (y, a);\nendmodule\n", "precede a dff"),
            ("module t (a, y);\n  input a;\n  output y;\n  (* frob = 1 *) dff (y, a);\nendmodule\n", "unknown attribute"),
            ("module t (a, y);\n  input a;\n  output y;\n  not (y, 1'b0);\nendmodule\n", "literals are not allowed"),
            ("module t (a, y);\n  input a;\n  output y;\n  mux (y, a);\nendmodule\n", "given"),
            ("module t (a, y);\n  input a;\n  output y;\n  not (y, a)\nendmodule\n", "expected `;`"),
            ("module t (wire);\nendmodule\n", "keyword"),
            ("module t; /* open\n", "unterminated"),
            ("module t;\n  @\nendmodule\n", "unexpected character"),
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
    fn emit_round_trips_functionally() {
        let n = parse(S27_V).unwrap();
        let text = emit(&n);
        let back = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(back.num_inputs(), n.num_inputs());
        assert_eq!(back.num_ffs(), n.num_ffs());
        // Output port names survive the Verilog round-trip.
        assert_eq!(back.outputs()[0].0, "G17");
        testutil::assert_agree(&n, &back, 0xBEEF, 32);
    }

    #[test]
    fn emit_escapes_keyword_and_hostile_names() {
        let mut b = crate::NetlistBuilder::new("mod ule");
        let m = b.input("module");
        let s = b.input("a b");
        let g = b.and2(m, s);
        b.output("assign", g);
        b.output("y$ok", g);
        let n = b.finish().unwrap();
        let text = emit(&n);
        let back = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(back.num_inputs(), 2);
        assert_eq!(back.num_outputs(), 2);
        assert_eq!(back.input_names(), &["esc_module", "a_b"]);
    }

    #[test]
    fn constants_and_mux_round_trip() {
        let mut b = crate::NetlistBuilder::new("t");
        let s = b.input("s");
        let k0 = b.constant(false);
        let k1 = b.constant(true);
        let m = b.mux(s, k0, k1);
        let q = b.dff(true);
        b.connect_dff(q, m).unwrap();
        b.output("q", q);
        let n = b.finish().unwrap();
        let text = emit(&n);
        let back = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(back.ff_init_values(), vec![true]);
        testutil::assert_agree(&n, &back, 7, 8);
    }
}
