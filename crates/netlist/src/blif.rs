//! Structural BLIF frontend and emitter (the Berkeley Logic Interchange
//! Format subset used by mapped benchmark netlists).
//!
//! Supported directives:
//!
//! ```text
//! .model <name>
//! .inputs <a> <b> ...       # continuation with trailing `\`
//! .outputs <y> ...
//! .names <in>... <out>      # followed by single-output cover rows
//! 11 1
//! .latch <in> <out> [<type> <control>] [<init>]
//! .end
//! ```
//!
//! `.names` covers implement **general two-level logic**. Single-gate
//! shapes — the covers mapped netlists actually emit — are recognized
//! structurally and map onto one [`GateKind`] cell each:
//!
//! | cover (on-set)                          | gate    |
//! |-----------------------------------------|---------|
//! | no rows                                 | const 0 |
//! | single empty-input row `1`              | const 1 |
//! | `1 1`                                   | buf     |
//! | `0 1`                                   | not     |
//! | single row, all `1`                     | and     |
//! | single row, all `0`                     | nor     |
//! | one row per input: one `1`, rest `-`    | or      |
//! | one row per input: one `0`, rest `-`    | nand    |
//! | `10 1` + `01 1` (2 inputs)              | xor     |
//! | `11 1` + `00 1` (2 inputs)              | xnor    |
//!
//! Every other cover is synthesized as a true sum of products: one AND
//! term per row (`0` columns through shared `NOT` literals, `-` columns
//! skipped), an OR across the terms, and — for off-set (`… 0`) covers,
//! which BLIF defines as the function's complement — a final inversion.
//! Synthesized intermediate nets are named `$sop$<out>$…`. A cover that
//! mixes on-set and off-set rows is rejected with a located error.
//! `.latch` lowers to
//! the IR's single-clock D flip-flop; the optional type/control pair is
//! accepted (and ignored — the IR has one implicit clock) and the
//! optional init value maps `0`→0, `1`→1, `2`(don't-care) and
//! `3`(unknown)→0. Unsupported directives (`.subckt`, `.exdc`, …) are
//! rejected, not skipped.
//!
//! The grammar is specified alongside the other formats in
//! `docs/FORMATS.md`; parse-layer errors carry 1-based line numbers
//! (see the [error contract](crate::NetlistError)).
//!
//! # Example
//!
//! ```
//! let src = "\
//! .model toggle
//! .inputs en
//! .outputs q
//! .latch nx q re clk 0
//! .names en q nx
//! 10 1
//! 01 1
//! .end
//! ";
//! let n = seugrade_netlist::blif::parse(src)?;
//! assert_eq!(n.num_ffs(), 1);
//! assert_eq!(n.num_gates(), 1); // one XOR
//! # Ok::<(), seugrade_netlist::NetlistError>(())
//! ```

use std::collections::HashMap;

use crate::ident::EmitNames;
use crate::import::{lower, Lowering, Stmt, Stmts};
use crate::{CellKind, GateKind, Netlist, NetlistError, SigId};

/// Serializes a netlist to structural BLIF — the emitter pairing
/// [`parse`], completing the crate's emit×import round-trip matrix.
///
/// Inputs are referenced by their port names (legalized through the
/// shared escaping pass (`ident`) when a name would read as a
/// directive, comment or continuation); every other net uses its stable
/// `n<i>` id. Gates become single-gate `.names` covers (the shapes the
/// parser's pattern matcher recognizes, so a round-trip is cell-for-cell
/// stable for 2-input logic), flip-flops become `.latch <d> <q> re clk
/// <init>` and constants empty/`1` covers. Wide XOR/XNOR gates — whose
/// parity covers would need 2^(n-1) rows — are decomposed into 2-input
/// chains, and MUX cells are emitted as their two-term sum-of-products
/// cover; both re-import as equivalent logic. `.outputs` identifies
/// ports by net, so when several ports share one driver the later ports
/// go through buffer-cover aliases (swept away again on re-import) and
/// original output port *names* are dropped, exactly as in `.bench`.
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
    let mut names = EmitNames::new(netlist, crate::ident::blif_legal);
    let model = crate::ident::legalize(netlist.name(), crate::ident::blif_legal);
    writeln!(out, "# {} (emitted by seugrade-netlist)", netlist.name())?;
    writeln!(out, ".model {model}")?;
    if !netlist.inputs().is_empty() {
        let ins: Vec<&str> = netlist.inputs().iter().map(|&s| names.token(s)).collect();
        writeln!(out, ".inputs {}", ins.join(" "))?;
    }
    // `.outputs` lists nets; a net may appear once, so later ports that
    // share a driver are emitted through buffer-cover aliases.
    let mut seen_outputs: HashMap<SigId, usize> = HashMap::new();
    let mut out_tokens: Vec<String> = Vec::new();
    let mut aliases: Vec<(String, String)> = Vec::new();
    for (_, sig) in netlist.outputs() {
        let count = seen_outputs.entry(*sig).or_insert(0);
        let target = names.token(*sig).to_owned();
        if *count == 0 {
            out_tokens.push(target);
        } else {
            let alias = names.fresh(&format!("{target}_o{count}"));
            aliases.push((alias.clone(), target));
            out_tokens.push(alias);
        }
        *count += 1;
    }
    if !out_tokens.is_empty() {
        writeln!(out, ".outputs {}", out_tokens.join(" "))?;
    }
    for (id, cell) in netlist.iter_cells() {
        match cell.kind() {
            CellKind::Input => {}
            CellKind::Const(v) => {
                writeln!(out, ".names {}", names.token(id))?;
                if v {
                    writeln!(out, "1")?;
                }
            }
            CellKind::Dff { init } => {
                writeln!(
                    out,
                    ".latch {} {} re clk {}",
                    names.token(cell.pins()[0]),
                    names.token(id),
                    u8::from(init)
                )?;
            }
            CellKind::Gate(kind) => {
                let pins: Vec<String> =
                    cell.pins().iter().map(|&p| names.token(p).to_owned()).collect();
                let target = names.token(id).to_owned();
                emit_gate_cover(out, &mut names, kind, &pins, &target)?;
            }
        }
    }
    for (alias, target) in &aliases {
        writeln!(out, ".names {target} {alias}")?;
        writeln!(out, "1 1")?;
    }
    writeln!(out, ".end")
}

/// Emits one gate as `.names` cover(s). Everything is a single cover
/// except wide XOR/XNOR, which would need an exponential parity cover
/// and is chained through fresh 2-input stages instead.
fn emit_gate_cover(
    out: &mut impl std::fmt::Write,
    names: &mut EmitNames,
    kind: GateKind,
    pins: &[String],
    target: &str,
) -> std::fmt::Result {
    let n = pins.len();
    let header =
        |out: &mut dyn std::fmt::Write, pins: &[String], target: &str| -> std::fmt::Result {
            writeln!(out, ".names {} {target}", pins.join(" "))
        };
    match kind {
        GateKind::Buf => {
            header(out, pins, target)?;
            writeln!(out, "1 1")
        }
        GateKind::Not => {
            header(out, pins, target)?;
            writeln!(out, "0 1")
        }
        GateKind::And => {
            header(out, pins, target)?;
            writeln!(out, "{} 1", "1".repeat(n))
        }
        GateKind::Nor => {
            header(out, pins, target)?;
            writeln!(out, "{} 1", "0".repeat(n))
        }
        GateKind::Or | GateKind::Nand => {
            // One row per input: the hot column is `1` (OR) or `0`
            // (NAND), everything else don't-care.
            let hot = if kind == GateKind::Or { '1' } else { '0' };
            header(out, pins, target)?;
            for i in 0..n {
                let row: String =
                    (0..n).map(|j| if j == i { hot } else { '-' }).collect();
                writeln!(out, "{row} 1")?;
            }
            Ok(())
        }
        GateKind::Xor | GateKind::Xnor if n == 2 => {
            header(out, pins, target)?;
            if kind == GateKind::Xor {
                writeln!(out, "10 1")?;
                writeln!(out, "01 1")
            } else {
                writeln!(out, "11 1")?;
                writeln!(out, "00 1")
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            // Parity chain: XOR stages for all but the last pin, with
            // the final stage carrying the (possibly inverted) kind.
            let mut acc = pins[0].clone();
            for (i, pin) in pins.iter().enumerate().skip(1) {
                let last = i == n - 1;
                let stage_kind = if last { kind } else { GateKind::Xor };
                let stage_out = if last {
                    target.to_owned()
                } else {
                    names.fresh(&format!("{target}_x{i}"))
                };
                let stage_pins = [acc.clone(), pin.clone()];
                emit_gate_cover(out, names, stage_kind, &stage_pins, &stage_out)?;
                acc = stage_out;
            }
            Ok(())
        }
        GateKind::Mux => {
            // Pins are `[sel, d0, d1]`: d0 when sel is 0, d1 when 1.
            header(out, pins, target)?;
            writeln!(out, "01- 1")?;
            writeln!(out, "1-1 1")
        }
    }
}

/// Synthesizes a finished cover into gate statements.
///
/// Single-gate shapes (the covers mapped netlists emit) are recognized
/// structurally and produce exactly one cell; anything else goes through
/// true two-level sum-of-products synthesis: one AND term per row (with
/// `NOT` literals for `0` columns, shared within the cover), an OR of
/// the terms, and a final inversion for off-set (`… 0`) covers.
/// Synthesized intermediate nets are named `$sop$<out>$…`.
fn synthesize(cover: &OwnedCover) -> Result<Vec<OwnedStmt>, NetlistError> {
    let line = cover.line;
    let n = cover.inputs.len();
    let mut out_value = None;
    for (bits, value) in &cover.rows {
        if bits.len() != n {
            return Err(NetlistError::Parse {
                line,
                msg: format!(
                    "cover row `{bits}` has {} columns, .names has {n} inputs",
                    bits.len()
                ),
            });
        }
        // BLIF defines a cover as either all on-set or all off-set.
        if *out_value.get_or_insert(*value) != *value {
            return Err(NetlistError::Parse {
                line,
                msg: "cover mixes on-set and off-set rows".into(),
            });
        }
    }
    let on_set = out_value != Some('0');
    let constant = |value: bool| {
        vec![OwnedStmt::Const { net: cover.out.clone(), value }]
    };

    // Constants.
    if n == 0 || cover.rows.is_empty() {
        return Ok(constant(on_set && !cover.rows.is_empty()));
    }
    // A row of only don't-cares covers everything.
    if cover.rows.iter().any(|(bits, _)| bits.chars().all(|c| c == '-')) {
        return Ok(constant(on_set));
    }

    // Fast path: single-gate cover shapes, on-set only (the historical
    // pattern matcher, kept so mapped netlists stay one cell per cover).
    if on_set {
        let rows: Vec<&str> = cover.rows.iter().map(|(b, _)| b.as_str()).collect();
        let all = |row: &str, c: char| row.chars().all(|x| x == c);
        let kind = if rows.len() == 1 && all(rows[0], '1') {
            Some(if n == 1 { GateKind::Buf } else { GateKind::And })
        } else if rows.len() == 1 && all(rows[0], '0') {
            Some(if n == 1 { GateKind::Not } else { GateKind::Nor })
        } else if n == 2 && rows.len() == 2 {
            let mut sorted = [rows[0], rows[1]];
            sorted.sort_unstable();
            match sorted {
                ["01", "10"] => Some(GateKind::Xor),
                ["00", "11"] => Some(GateKind::Xnor),
                _ => one_hot_kind(&rows, n),
            }
        } else {
            one_hot_kind(&rows, n)
        };
        if let Some(kind) = kind {
            return Ok(vec![OwnedStmt::Gate {
                kind,
                net: cover.out.clone(),
                pins: cover.inputs.clone(),
            }]);
        }
    }

    // General two-level synthesis.
    let mut stmts = Vec::new();
    let mut negated: Vec<Option<String>> = vec![None; n];
    let mut terms: Vec<String> = Vec::new();
    for (t, (bits, _)) in cover.rows.iter().enumerate() {
        let mut literals: Vec<String> = Vec::new();
        for (i, c) in bits.chars().enumerate() {
            match c {
                '1' => literals.push(cover.inputs[i].clone()),
                '0' => {
                    let net = negated[i].get_or_insert_with(|| {
                        let net = format!("$sop${}$n{i}", cover.out);
                        stmts.push(OwnedStmt::Gate {
                            kind: GateKind::Not,
                            net: net.clone(),
                            pins: vec![cover.inputs[i].clone()],
                        });
                        net
                    });
                    literals.push(net.clone());
                }
                '-' => {}
                other => {
                    return Err(NetlistError::Parse {
                        line,
                        msg: format!("invalid cover character `{other}`"),
                    });
                }
            }
        }
        debug_assert!(!literals.is_empty(), "all-don't-care rows returned above");
        if literals.len() == 1 {
            terms.push(literals.pop().expect("one literal"));
        } else {
            let net = format!("$sop${}$t{t}", cover.out);
            stmts.push(OwnedStmt::Gate { kind: GateKind::And, net: net.clone(), pins: literals });
            terms.push(net);
        }
    }
    // OR the terms; off-set covers define the complement.
    let (kind, pins) = if terms.len() == 1 {
        let kind = if on_set { GateKind::Buf } else { GateKind::Not };
        (kind, terms)
    } else {
        let kind = if on_set { GateKind::Or } else { GateKind::Nor };
        (kind, terms)
    };
    stmts.push(OwnedStmt::Gate { kind, net: cover.out.clone(), pins });
    Ok(stmts)
}

/// Recognizes the one-row-per-input OR (`1` + don't-cares) and NAND
/// (`0` + don't-cares) cover shapes.
fn one_hot_kind(rows: &[&str], n: usize) -> Option<GateKind> {
    if rows.len() != n {
        return None;
    }
    let shape = |c: char| -> bool {
        // Every input position must be the distinguished column of
        // exactly one row, all other columns `-`.
        let mut seen = vec![false; n];
        for row in rows {
            let mut hot = None;
            for (i, x) in row.chars().enumerate() {
                if x == c {
                    if hot.is_some() {
                        return false;
                    }
                    hot = Some(i);
                } else if x != '-' {
                    return false;
                }
            }
            match hot {
                Some(i) if !seen[i] => seen[i] = true,
                _ => return false,
            }
        }
        seen.into_iter().all(|s| s)
    };
    if shape('1') {
        Some(GateKind::Or)
    } else if shape('0') {
        Some(GateKind::Nand)
    } else {
        None
    }
}

/// Parses structural BLIF text into a validated [`Netlist`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for malformed or unsupported
/// directives and covers, [`NetlistError::UnknownNet`] for references
/// to nets never defined, and any validation error from the shared
/// lowering (dangling outputs, combinational loops, duplicate ports).
pub fn parse(src: &str) -> Result<Netlist, NetlistError> {
    parse_with(src, lower)
}

/// [`parse`] through the given lowering: the unit tests check the
/// shared lowering against a reference one through here.
pub(crate) fn parse_with(src: &str, lower: Lowering) -> Result<Netlist, NetlistError> {
    // Join `\` continuation lines, keeping the first physical line's
    // number for diagnostics.
    let mut logical: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split('#').next().unwrap_or("").trim_end();
        let (continues, body) = match text.strip_suffix('\\') {
            Some(stripped) => (true, stripped.trim_end()),
            None => (false, text),
        };
        match pending.take() {
            Some((l, mut acc)) => {
                acc.push(' ');
                acc.push_str(body.trim());
                if continues {
                    pending = Some((l, acc));
                } else {
                    logical.push((l, acc));
                }
            }
            None => {
                if continues {
                    pending = Some((line, body.trim().to_owned()));
                } else if !body.trim().is_empty() {
                    logical.push((line, body.trim().to_owned()));
                }
            }
        }
    }
    if let Some((line, _)) = pending {
        return Err(NetlistError::Parse {
            line,
            msg: "file ends inside a `\\` continuation".into(),
        });
    }

    let mut model_name: Option<String> = None;
    let mut stmts_owned: Vec<(usize, OwnedStmt)> = Vec::new();
    let mut cover: Option<OwnedCover> = None;
    let mut saw_end = false;

    for (line, text) in &logical {
        let line = *line;
        if saw_end {
            return Err(NetlistError::Parse {
                line,
                msg: "content after `.end`".into(),
            });
        }
        let toks: Vec<&str> = text.split_whitespace().collect();
        let Some(&head) = toks.first() else { continue };

        if !head.starts_with('.') {
            // Cover row for the open `.names`.
            let Some(c) = cover.as_mut() else {
                return Err(NetlistError::Parse {
                    line,
                    msg: format!("cover row `{text}` outside a .names block"),
                });
            };
            let (bits, value) = match toks.as_slice() {
                [v] if c.inputs.is_empty() => (String::new(), *v),
                [bits, v] => ((*bits).to_owned(), *v),
                _ => {
                    return Err(NetlistError::Parse {
                        line,
                        msg: format!("malformed cover row `{text}`"),
                    });
                }
            };
            if value.len() != 1 || !"01".contains(value) {
                return Err(NetlistError::Parse {
                    line,
                    msg: format!("cover output must be 0 or 1, found `{value}`"),
                });
            }
            if let Some(bad) = bits.chars().find(|c| !"01-".contains(*c)) {
                return Err(NetlistError::Parse {
                    line,
                    msg: format!("invalid cover character `{bad}`"),
                });
            }
            c.rows.push((bits, value.chars().next().unwrap()));
            continue;
        }

        // A directive closes any open .names block, which synthesizes
        // into one or more gate/const statements.
        if let Some(c) = cover.take() {
            for s in synthesize(&c)? {
                stmts_owned.push((c.line, s));
            }
        }

        match head {
            ".model" => {
                if toks.len() != 2 {
                    return Err(NetlistError::Parse {
                        line,
                        msg: ".model takes exactly one name".into(),
                    });
                }
                if model_name.replace(toks[1].to_owned()).is_some() {
                    return Err(NetlistError::Parse {
                        line,
                        msg: "only one .model per file is supported".into(),
                    });
                }
            }
            ".inputs" => {
                for name in &toks[1..] {
                    stmts_owned.push((line, OwnedStmt::Input((*name).to_owned())));
                }
            }
            ".outputs" => {
                for name in &toks[1..] {
                    stmts_owned.push((line, OwnedStmt::Output((*name).to_owned())));
                }
            }
            ".names" => {
                if toks.len() < 2 {
                    return Err(NetlistError::Parse {
                        line,
                        msg: ".names needs at least an output".into(),
                    });
                }
                let inputs: Vec<String> =
                    toks[1..toks.len() - 1].iter().map(|s| (*s).to_owned()).collect();
                cover = Some(OwnedCover {
                    line,
                    inputs,
                    out: toks[toks.len() - 1].to_owned(),
                    rows: Vec::new(),
                });
            }
            ".latch" => {
                // .latch <in> <out> [<type> <control>] [<init>]
                let args = &toks[1..];
                let (input, output, init_tok) = match args.len() {
                    2 => (args[0], args[1], None),
                    3 => (args[0], args[1], Some(args[2])),
                    4 => (args[0], args[1], None),
                    5 => (args[0], args[1], Some(args[4])),
                    _ => {
                        return Err(NetlistError::Parse {
                            line,
                            msg: ".latch takes <in> <out> [<type> <control>] [<init>]".into(),
                        });
                    }
                };
                let init = match init_tok {
                    None | Some("0") | Some("2") | Some("3") => false,
                    Some("1") => true,
                    Some(other) => {
                        return Err(NetlistError::Parse {
                            line,
                            msg: format!("latch init must be 0-3, found `{other}`"),
                        });
                    }
                };
                stmts_owned.push((
                    line,
                    OwnedStmt::Latch {
                        d: input.to_owned(),
                        net: output.to_owned(),
                        init,
                    },
                ));
            }
            ".end" => {
                if toks.len() != 1 {
                    return Err(NetlistError::Parse {
                        line,
                        msg: ".end takes no arguments".into(),
                    });
                }
                saw_end = true;
            }
            other => {
                return Err(NetlistError::Parse {
                    line,
                    msg: format!("unsupported BLIF directive `{other}`"),
                });
            }
        }
    }
    if let Some(c) = cover.take() {
        for s in synthesize(&c)? {
            stmts_owned.push((c.line, s));
        }
    }

    // Lower through the shared import layer. The owned statements are
    // borrowed here so `Stmt`'s zero-copy shape is reused unchanged.
    let mut stmts = Stmts::default();
    for &(line, ref s) in &stmts_owned {
        match s {
            OwnedStmt::Input(name) => stmts.push(line, Stmt::Input { name }),
            OwnedStmt::Output(name) => stmts.push(line, Stmt::Output { name, net: name }),
            OwnedStmt::Latch { d, net, init } => {
                stmts.push(line, Stmt::Dff { net, init: *init, d });
            }
            OwnedStmt::Const { net, value } => stmts.push(line, Stmt::Const { net, value: *value }),
            OwnedStmt::Gate { kind, net, pins } => {
                stmts.gate(line, *kind, net, pins.iter().map(String::as_str));
            }
        }
    }

    lower(model_name.unwrap_or_else(|| "blif".to_owned()), &stmts)
}

/// Owned mirror of the statement stream (cover rows arrive over many
/// physical lines and synthesis invents intermediate nets, so zero-copy
/// parsing would fight the borrow checker for no benefit at import
/// rates).
enum OwnedStmt {
    Input(String),
    Output(String),
    Latch { d: String, net: String, init: bool },
    Const { net: String, value: bool },
    Gate { kind: GateKind, net: String, pins: Vec<String> },
}

struct OwnedCover {
    line: usize,
    inputs: Vec<String>,
    out: String,
    rows: Vec<(String, char)>,
}

#[cfg(test)]
mod tests {
    use crate::CellKind;

    use super::*;

    #[test]
    fn gate_covers_map_to_kinds() {
        let src = "\
.model gates
.inputs a b c
.outputs o_and o_or o_nand o_nor o_xor o_xnor o_not o_buf o_and3
.names a b o_and
11 1
.names a b o_or
1- 1
-1 1
.names a b o_nand
0- 1
-0 1
.names a b o_nor
00 1
.names a b o_xor
10 1
01 1
.names a b o_xnor
11 1
00 1
.names a o_not
0 1
.names a o_buf
1 1
.names a b c o_and3
111 1
.end
";
        let n = parse(src).unwrap();
        let count = |kind: GateKind| {
            n.iter_cells()
                .filter(|(_, c)| c.kind() == CellKind::Gate(kind))
                .count()
        };
        assert_eq!(count(GateKind::And), 2);
        assert_eq!(count(GateKind::Or), 1);
        assert_eq!(count(GateKind::Nand), 1);
        assert_eq!(count(GateKind::Nor), 1);
        assert_eq!(count(GateKind::Xor), 1);
        assert_eq!(count(GateKind::Xnor), 1);
        assert_eq!(count(GateKind::Not), 1);
        assert_eq!(count(GateKind::Buf), 1);
        assert_eq!(n.name(), "gates");
    }

    #[test]
    fn constants() {
        let src = "\
.model k
.outputs lo hi
.names lo
.names hi
1
.end
";
        let n = parse(src).unwrap();
        assert_eq!(n.num_outputs(), 2);
        let consts: Vec<bool> = n
            .iter_cells()
            .filter_map(|(_, c)| match c.kind() {
                CellKind::Const(v) => Some(v),
                _ => None,
            })
            .collect();
        assert_eq!(consts, vec![false, true]);
    }

    #[test]
    fn latch_inits() {
        let src = "\
.model l
.inputs d
.outputs q0 q1 qd
.latch d q0 0
.latch d q1 re clk 1
.latch d qd re clk
.end
";
        let n = parse(src).unwrap();
        assert_eq!(n.ff_init_values(), vec![false, true, false]);
    }

    #[test]
    fn continuation_lines() {
        let src = ".model c\n.inputs a \\\n b\n.outputs y\n.names a b y\n11 1\n.end\n";
        let n = parse(src).unwrap();
        assert_eq!(n.num_inputs(), 2);
    }

    #[test]
    fn general_sop_cover_synthesizes_terms() {
        // f = a·c + ¬a·b: two AND terms over one shared NOT, OR-folded.
        let src = "\
.model sop
.inputs a b c
.outputs y
.names a b c y
1-1 1
01- 1
.end
";
        let n = parse(src).unwrap();
        assert_eq!(n.num_outputs(), 1);
        let count = |kind: GateKind| {
            n.iter_cells()
                .filter(|(_, c)| c.kind() == CellKind::Gate(kind))
                .count()
        };
        assert_eq!(count(GateKind::And), 2);
        assert_eq!(count(GateKind::Not), 1);
        assert_eq!(count(GateKind::Or), 1);
    }

    #[test]
    fn off_set_cover_synthesizes_complement() {
        // `1 0` reads "f is 0 when a is 1" — i.e. y = ¬a.
        let src = ".model neg\n.inputs a\n.outputs y\n.names a y\n1 0\n.end\n";
        let n = parse(src).unwrap();
        assert_eq!(n.num_gates(), 1);
        assert!(n
            .iter_cells()
            .any(|(_, c)| c.kind() == CellKind::Gate(GateKind::Not)));
        // Multi-row off-set: y = ¬(a·b + ¬a·¬b) = a ⊕ b, via NOR fold.
        let src = "\
.model negsop
.inputs a b
.outputs y
.names a b y
01 0
10 0
.end
";
        let n = parse(src).unwrap();
        let count = |kind: GateKind| {
            n.iter_cells()
                .filter(|(_, c)| c.kind() == CellKind::Gate(kind))
                .count()
        };
        assert_eq!(count(GateKind::And), 2);
        assert_eq!(count(GateKind::Nor), 1);
    }

    #[test]
    fn mixed_polarity_cover_rejected() {
        let src = ".model bad\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n";
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("mixes on-set and off-set"), "{err}");
        assert_eq!(err.line(), Some(4));
    }

    #[test]
    fn all_dont_care_row_is_constant() {
        let src = ".model k\n.inputs a b\n.outputs y\n.names a b y\n-- 1\n11 1\n.end\n";
        let n = parse(src).unwrap();
        let consts: Vec<bool> = n
            .iter_cells()
            .filter_map(|(_, c)| match c.kind() {
                CellKind::Const(v) => Some(v),
                _ => None,
            })
            .collect();
        assert_eq!(consts, vec![true]);
        assert_eq!(n.num_gates(), 0);
    }

    #[test]
    fn malformed_directives_rejected() {
        assert!(parse(".model a b\n.end\n").is_err());
        assert!(parse(".model a\n.model b\n.end\n").is_err());
        assert!(parse(".subckt foo a=b\n").is_err());
        assert!(parse(".model m\n.latch a\n.end\n").is_err());
        assert!(parse(".model m\n.latch a q 7\n.end\n").is_err());
        assert!(parse(".model m\n.names\n.end\n").is_err());
        assert!(parse(".model m\n.end\n.inputs a\n").is_err());
        assert!(parse("11 1\n").is_err());
        assert!(parse(".model m\n.inputs a \\\n").is_err());
        assert!(parse(".model m\n.inputs a\n.outputs y\n.names a y\n1 x\n.end\n").is_err());
        assert!(parse(".model m\n.inputs a\n.outputs y\n.names a y\n2 1\n.end\n").is_err());
        assert!(parse(".model m\n.inputs a\n.outputs y\n.names a y\n11 1\n.end\n").is_err());
    }

    #[test]
    fn undefined_net_in_latch_reported() {
        let src = ".model m\n.outputs q\n.latch ghost q 0\n.end\n";
        let err = parse(src).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownNet { ref name, .. } if name == "ghost"));
    }

    #[test]
    fn duplicate_output_port_reported() {
        let src = ".model m\n.inputs a\n.outputs y y\n.names a y\n1 1\n.end\n";
        let err = parse(src).unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 3, .. }), "{err:?}");
        assert!(err.to_string().contains("declared twice"));
    }

    #[test]
    fn emit_round_trips_every_gate_kind() {
        let mut b = crate::NetlistBuilder::new("kinds");
        let a = b.input("a");
        let c = b.input("b");
        let s = b.input("s");
        let q = b.dff(true);
        let g_and = b.and2(a, c);
        let g_or = b.or2(a, c);
        let g_nand = b.nand2(a, c);
        let g_nor = b.nor2(a, c);
        let g_xor = b.xor2(a, c);
        let g_xnor = b.xnor2(a, c);
        let g_not = b.not(a);
        let g_mux = b.mux(s, g_and, g_or);
        let wide_xor = b.gate(GateKind::Xor, &[a, c, s, q]);
        let wide_xnor = b.gate(GateKind::Xnor, &[g_not, g_nand, g_nor]);
        let k0 = b.constant(false);
        let k1 = b.constant(true);
        let all = b.gate(
            GateKind::Or,
            &[g_xor, g_xnor, g_mux, wide_xor, wide_xnor, k0, k1],
        );
        b.connect_dff(q, all).unwrap();
        b.output("y", all);
        b.output("q", q);
        let n = b.finish().unwrap();
        let text = emit(&n);
        let back = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(back.num_inputs(), n.num_inputs());
        assert_eq!(back.num_outputs(), n.num_outputs());
        assert_eq!(back.ff_init_values(), n.ff_init_values());
        crate::testutil::assert_agree(&n, &back, 0xD1CE, 16);
    }

    #[test]
    fn emit_aliases_shared_output_nets() {
        let mut b = crate::NetlistBuilder::new("shared");
        let a = b.input("a");
        let g = b.not(a);
        b.output("y0", g);
        b.output("y1", g);
        b.output("y2", g);
        let n = b.finish().unwrap();
        let text = emit(&n);
        let back = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(back.num_outputs(), 3);
    }

    #[test]
    fn emit_escapes_hostile_net_names() {
        // `.x` would read as a directive, `a b` would split into two
        // tokens, `#c` would vanish as a comment.
        let mut b = crate::NetlistBuilder::new("hostile");
        let x = b.input(".x");
        let y = b.input("a b");
        let z = b.input("#c");
        let g = b.gate(GateKind::And, &[x, y, z]);
        b.output("y", g);
        let n = b.finish().unwrap();
        let text = emit(&n);
        let back = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(back.num_inputs(), 3);
        assert_eq!(back.num_gates(), 1);
    }

    #[test]
    fn missing_end_is_accepted() {
        // Some emitters omit .end; tolerate it (the shared lowering
        // still validates connectivity).
        let n = parse(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n").unwrap();
        assert_eq!(n.num_outputs(), 1);
    }
}
