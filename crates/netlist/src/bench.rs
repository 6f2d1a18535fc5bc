//! ISCAS'85/'89 `.bench` netlist frontend and emitter.
//!
//! The `.bench` format is the lingua franca of the ISCAS'85 (c432,
//! c6288, …) and ISCAS'89 (s27, s344, s5378, …) benchmark suites:
//!
//! ```text
//! # comment
//! INPUT(G0)
//! OUTPUT(G17)
//! G5 = DFF(G10)
//! G10 = NOR(G14, G11)
//! G14 = NOT(G0)
//! ```
//!
//! Keywords are case-insensitive; net names are case-sensitive
//! whitespace-free tokens. Supported gate functions: `AND`, `OR`,
//! `NAND`, `NOR`, `XOR`, `XNOR`, `NOT`, `BUF`/`BUFF`, `MUX`
//! (`[sel, d0, d1]` pin order), the constants `CONST0`/`CONST1`
//! (`GND`/`VCC` aliases, no arguments) and `DFF`. Statements may appear
//! in any order; forward references are resolved by the shared
//! [import layer](crate::import).
//!
//! `.bench` has no notion of flip-flop initial values; every `DFF`
//! powers up at `0` unless overridden by the pragma comment
//!
//! ```text
//! #@ init <net> <0|1>
//! ```
//!
//! which may appear anywhere in the file, standalone or trailing a
//! statement (recognized whenever a line's first `#` is immediately
//! followed by `@`). The full grammar, including
//! the pragma, is specified in `docs/FORMATS.md` at the repository
//! root; parse-layer errors carry 1-based line numbers (see the
//! [error contract](crate::NetlistError)).
//!
//! # Example
//!
//! ```
//! let src = "\
//! INPUT(a)
//! OUTPUT(y)
//! #@ init q 1
//! q = DFF(nx)
//! nx = XOR(a, q)
//! y = NOT(q)
//! ";
//! let n = seugrade_netlist::bench::parse(src)?;
//! assert_eq!(n.num_ffs(), 1);
//! assert_eq!(n.ff_init_values(), vec![true]);
//! # Ok::<(), seugrade_netlist::NetlistError>(())
//! ```

use std::collections::HashMap;

use crate::ident::EmitNames;
use crate::import::{lower, Stmt};
use crate::{CellKind, GateKind, Netlist, NetlistError, SigId};

/// Serializes a netlist to ISCAS `.bench` text — the interop emitter
/// pairing [`parse`].
///
/// Inputs are referenced by their port names (legalized through the
/// shared escaping pass (`ident`) when they contain characters
/// the grammar reserves); every other net uses its stable `n<i>` id.
/// Flip-flops become `DFF(...)` statements with a
/// `#@ init <net> 1` pragma for every non-zero power-on value, and
/// constants become `CONST0()`/`CONST1()`. `.bench` identifies output
/// ports with the nets they observe, so when several ports share one
/// driver the later ports are emitted through `BUFF` aliases (swept
/// away again on re-import); original output port *names* are not
/// representable in the format and are dropped.
///
/// The emitted text re-imports ([`crate::import`]) to a circuit that is
/// sequentially equivalent to the original — the ingest round-trip
/// suite enforces `import → emit → import` equivalence for every
/// registry circuit.
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
    let mut names = EmitNames::new(netlist, crate::ident::bench_legal);
    writeln!(out, "# {} (emitted by seugrade-netlist)", netlist.name())?;
    for &sig in netlist.inputs() {
        writeln!(out, "INPUT({})", names.token(sig))?;
    }
    let mut seen_outputs: HashMap<SigId, usize> = HashMap::new();
    for (_, sig) in netlist.outputs() {
        let aliases = seen_outputs.entry(*sig).or_insert(0);
        if *aliases == 0 {
            writeln!(out, "OUTPUT({})", names.token(*sig))?;
        } else {
            // A net may be OUTPUT once; further ports alias it through
            // a buffer.
            let want = format!("{}_o{aliases}", names.token(*sig));
            let alias = names.fresh(&want);
            writeln!(out, "{alias} = BUFF({})", names.token(*sig))?;
            writeln!(out, "OUTPUT({alias})")?;
        }
        *aliases += 1;
    }
    for (id, cell) in netlist.iter_cells() {
        match cell.kind() {
            CellKind::Input => {}
            CellKind::Const(v) => {
                writeln!(out, "{} = CONST{}()", names.token(id), u8::from(v))?;
            }
            CellKind::Gate(kind) => {
                let name = match kind {
                    GateKind::Buf => "BUFF".to_owned(),
                    k => k.mnemonic().to_ascii_uppercase(),
                };
                let pins: Vec<String> =
                    cell.pins().iter().map(|&p| names.token(p).to_owned()).collect();
                writeln!(out, "{} = {name}({})", names.token(id), pins.join(", "))?;
            }
            CellKind::Dff { init } => {
                writeln!(out, "{} = DFF({})", names.token(id), names.token(cell.pins()[0]))?;
                if init {
                    writeln!(out, "#@ init {} 1", names.token(id))?;
                }
            }
        }
    }
    Ok(())
}

/// Splits `NAME(arg, arg, ...)` into the head token and its arguments.
fn call<'a>(text: &'a str, line: usize) -> Result<(&'a str, Vec<&'a str>), NetlistError> {
    let open = text.find('(').ok_or_else(|| NetlistError::Parse {
        line,
        msg: format!("expected `(` in `{text}`"),
    })?;
    let close = text.rfind(')').ok_or_else(|| NetlistError::Parse {
        line,
        msg: format!("missing `)` in `{text}`"),
    })?;
    if close < open || !text[close + 1..].trim().is_empty() {
        return Err(NetlistError::Parse {
            line,
            msg: format!("malformed call `{text}`"),
        });
    }
    let head = text[..open].trim();
    let inner = &text[open + 1..close];
    let args: Vec<&str> = inner
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .collect();
    if head.is_empty() {
        return Err(NetlistError::Parse {
            line,
            msg: format!("missing function name in `{text}`"),
        });
    }
    Ok((head, args))
}

/// Maps a `.bench` gate keyword to the IR gate kind.
fn gate_kind(name: &str) -> Option<GateKind> {
    match name.to_ascii_uppercase().as_str() {
        "AND" => Some(GateKind::And),
        "OR" => Some(GateKind::Or),
        "NAND" => Some(GateKind::Nand),
        "NOR" => Some(GateKind::Nor),
        "XOR" => Some(GateKind::Xor),
        "XNOR" => Some(GateKind::Xnor),
        "NOT" | "INV" => Some(GateKind::Not),
        "BUF" | "BUFF" => Some(GateKind::Buf),
        "MUX" => Some(GateKind::Mux),
        _ => None,
    }
}

/// Parses ISCAS `.bench` text into a validated [`Netlist`].
///
/// The netlist's module name is `bench` (the format has no name
/// directive); rename-sensitive callers can rebuild through
/// [`crate::import`] fixtures or ignore the name.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for malformed lines (unknown gate
/// function, bad pragma, duplicate definitions),
/// [`NetlistError::UnknownNet`] for references to nets never defined,
/// and any validation error from the shared lowering (dangling outputs,
/// combinational loops, duplicate port names).
pub fn parse(src: &str) -> Result<Netlist, NetlistError> {
    // Pragma sweep first: `#@ init <net> <0|1>` assigns a DFF's
    // power-on value. The pragma may stand alone or trail a statement
    // (`q = DFF(nx) #@ init q 1`); it is recognized whenever the
    // line's *first* `#` is immediately followed by `@`.
    let mut inits: HashMap<&str, (usize, bool)> = HashMap::new();
    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let Some(hash) = raw.find('#') else { continue };
        let Some(rest) = raw[hash + 1..].strip_prefix('@') else { continue };
        let toks: Vec<&str> = rest.split_whitespace().collect();
        match toks.as_slice() {
            ["init", net, bit] => {
                let value = match *bit {
                    "0" => false,
                    "1" => true,
                    other => {
                        return Err(NetlistError::Parse {
                            line,
                            msg: format!("init pragma expects 0 or 1, found `{other}`"),
                        })
                    }
                };
                if inits.insert(net, (line, value)).is_some() {
                    return Err(NetlistError::Parse {
                        line,
                        msg: format!("duplicate init pragma for `{net}`"),
                    });
                }
            }
            _ => {
                return Err(NetlistError::Parse {
                    line,
                    msg: format!("unknown pragma `#@{rest}` (expected `#@ init <net> <0|1>`)"),
                });
            }
        }
    }

    let mut stmts: Vec<(usize, Stmt<'_>)> = Vec::new();
    // Each DFF net's statement index, so a pragma patches its DFF
    // without scanning every statement.
    let mut dff_stmts: HashMap<&str, usize> = HashMap::new();
    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        // `#` starts a comment (pragma or plain); any statement before
        // it still parses, so trailing `#@ init` pragmas compose.
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }

        if let Some(eq) = text.find('=') {
            // `<net> = FUNC(args)`
            let net = text[..eq].trim();
            if net.is_empty() || net.split_whitespace().count() != 1 {
                return Err(NetlistError::Parse {
                    line,
                    msg: format!("expected a single net name before `=` in `{text}`"),
                });
            }
            let (func, args) = call(text[eq + 1..].trim(), line)?;
            let upper = func.to_ascii_uppercase();
            match upper.as_str() {
                "DFF" | "FF" => {
                    if args.len() != 1 {
                        return Err(NetlistError::Parse {
                            line,
                            msg: format!("DFF takes exactly one input, got {}", args.len()),
                        });
                    }
                    dff_stmts.insert(net, stmts.len());
                    // Init patched below once pragmas are matched.
                    stmts.push((line, Stmt::Dff { net, init: false, d: args[0] }));
                }
                "CONST0" | "GND" | "CONST1" | "VCC" => {
                    if !args.is_empty() {
                        return Err(NetlistError::Parse {
                            line,
                            msg: format!("{upper} takes no arguments"),
                        });
                    }
                    let value = matches!(upper.as_str(), "CONST1" | "VCC");
                    stmts.push((line, Stmt::Const { net, value }));
                }
                _ => {
                    let kind = gate_kind(func).ok_or_else(|| NetlistError::Parse {
                        line,
                        msg: format!("unknown gate function `{func}`"),
                    })?;
                    if args.is_empty() {
                        return Err(NetlistError::Parse {
                            line,
                            msg: format!("gate `{func}` needs at least one input"),
                        });
                    }
                    let (min, max) = kind.arity();
                    // Some suites write degenerate 1-input AND/OR/...
                    // gates; the builder collapses those to buffers.
                    // MUX gets no such exemption — a 1-input MUX is a
                    // truncated line, not a convention.
                    let collapsible = min == 2 && args.len() == 1;
                    if args.len() > max || (args.len() < min && !collapsible) {
                        return Err(NetlistError::Parse {
                            line,
                            msg: format!("gate `{func}` given {} inputs", args.len()),
                        });
                    }
                    stmts.push((line, Stmt::Gate { kind, net, pins: args }));
                }
            }
        } else {
            let (head, args) = call(text, line)?;
            match head.to_ascii_uppercase().as_str() {
                "INPUT" => {
                    if args.len() != 1 {
                        return Err(NetlistError::Parse {
                            line,
                            msg: "INPUT takes exactly one name".into(),
                        });
                    }
                    stmts.push((line, Stmt::Input { name: args[0] }));
                }
                "OUTPUT" => {
                    if args.len() != 1 {
                        return Err(NetlistError::Parse {
                            line,
                            msg: "OUTPUT takes exactly one name".into(),
                        });
                    }
                    // The output port borrows the net's name, matching
                    // how the suites reference outputs.
                    stmts.push((line, Stmt::Output { name: args[0], net: args[0] }));
                }
                other => {
                    return Err(NetlistError::Parse {
                        line,
                        msg: format!("unknown statement `{other}`"),
                    });
                }
            }
        }
    }

    // Patch pragma inits into their DFF statements; a pragma that names
    // no DFF is an error (most likely a typo in the net name).
    for (net, (pragma_line, value)) in &inits {
        let Some(&at) = dff_stmts.get(net) else {
            return Err(NetlistError::Parse {
                line: *pragma_line,
                msg: format!("init pragma names `{net}`, which is not a DFF"),
            });
        };
        if let (_, Stmt::Dff { init, .. }) = &mut stmts[at] {
            *init = *value;
        }
    }

    lower("bench".to_owned(), &stmts)
}

#[cfg(test)]
mod tests {
    use crate::CellKind;

    use super::*;

    /// The real ISCAS'89 s27 netlist.
    const S27: &str = "\
# s27
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
";

    #[test]
    fn parses_s27() {
        let n = parse(S27).unwrap();
        assert_eq!(n.num_inputs(), 4);
        assert_eq!(n.num_outputs(), 1);
        assert_eq!(n.num_ffs(), 3);
        assert_eq!(n.num_gates(), 10);
        assert_eq!(n.ff_init_values(), vec![false; 3]);
    }

    #[test]
    fn init_pragma_sets_power_on_value() {
        let src = "\
INPUT(a)
OUTPUT(q)
q = DFF(nx)
nx = XOR(a, q)
#@ init q 1
";
        let n = parse(src).unwrap();
        assert_eq!(n.ff_init_values(), vec![true]);
    }

    #[test]
    fn trailing_init_pragma_is_not_swallowed_as_a_comment() {
        let src = "\
INPUT(a)
OUTPUT(q)
q = DFF(nx) #@ init q 1
nx = XOR(a, q)  # plain trailing comment
";
        let n = parse(src).unwrap();
        assert_eq!(n.ff_init_values(), vec![true]);
        // A pragma hidden behind a plain comment stays a comment.
        let src = "INPUT(a)\nOUTPUT(q)\nq = DFF(a) # note #@ init q 1\n";
        let n = parse(src).unwrap();
        assert_eq!(n.ff_init_values(), vec![false]);
    }

    #[test]
    fn underweight_mux_rejected_instead_of_collapsing() {
        let err = parse("INPUT(s)\nOUTPUT(y)\ny = MUX(s)\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 3, .. }), "{err:?}");
        assert!(parse("INPUT(s)\nINPUT(d)\nOUTPUT(y)\ny = MUX(s, d)\n").is_err());
        // The n-ary collapse convention still stands.
        let n = parse("INPUT(a)\nOUTPUT(y)\ny = AND(a)\n").unwrap();
        assert_eq!(n.num_gates(), 1);
    }

    #[test]
    fn bad_pragmas_rejected() {
        let base = "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n";
        let err = parse(&format!("{base}#@ init q 2\n")).unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 4, .. }), "{err}");
        let err = parse(&format!("{base}#@ frob q\n")).unwrap_err();
        assert!(err.to_string().contains("pragma"), "{err}");
        let err = parse(&format!("{base}#@ init nx 1\n")).unwrap_err();
        assert!(err.to_string().contains("not a DFF"), "{err}");
        let err = parse(&format!("{base}#@ init q 1\n#@ init q 0\n")).unwrap_err();
        assert!(err.to_string().contains("duplicate init"), "{err}");
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let src = "input(a)\noutput(y)\ny = nand(a, a)\n";
        let n = parse(src).unwrap();
        assert_eq!(n.num_gates(), 1);
    }

    #[test]
    fn constants_and_buffers() {
        let src = "\
INPUT(a)
OUTPUT(y)
one = CONST1()
z = VCC()
y = AND(a, one, z)
";
        let n = parse(src).unwrap();
        // Builder deduplicates same-value constants.
        let consts = n
            .iter_cells()
            .filter(|(_, c)| matches!(c.kind(), CellKind::Const(_)))
            .count();
        assert_eq!(consts, 1);
    }

    #[test]
    fn unknown_gate_reported_with_line() {
        let err = parse("INPUT(a)\ny = FOO(a)\nOUTPUT(y)\n").unwrap_err();
        assert!(
            matches!(err, NetlistError::Parse { line: 2, .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("FOO"));
        assert_eq!(err.line(), Some(2));
    }

    #[test]
    fn undefined_net_reported() {
        let err = parse("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n").unwrap_err();
        assert!(matches!(err, NetlistError::UnknownNet { ref name, .. } if name == "ghost"));
    }

    #[test]
    fn init_pragmas_patch_a_long_chain() {
        // A 4096-DFF shift chain, every other flip-flop powering on at 1;
        // each pragma finds its DFF by index, not by a scan.
        let n = 4096;
        let mut src = String::from("INPUT(d)\nOUTPUT(q4095)\n");
        for i in 0..n {
            let from = if i == 0 { "d".to_owned() } else { format!("q{}", i - 1) };
            src.push_str(&format!("q{i} = DFF({from})\n"));
            if i % 2 == 1 {
                src.push_str(&format!("#@ init q{i} 1\n"));
            }
        }
        let inits = parse(&src).unwrap().ff_init_values();
        assert_eq!(inits.len(), n);
        assert_eq!(inits.iter().filter(|&&b| b).count(), n / 2);
        let err = parse(&format!("{src}#@ init d 1\n")).unwrap_err();
        assert!(err.to_string().contains("not a DFF"), "{err}");
    }

    #[test]
    fn duplicate_definition_reported() {
        let err = parse("INPUT(a)\ny = NOT(a)\ny = BUF(a)\nOUTPUT(y)\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 3, .. }), "{err:?}");
    }

    #[test]
    fn malformed_lines_reported() {
        assert!(parse("INPUT a\n").is_err());
        assert!(parse("y = AND(a\n").is_err());
        assert!(parse("= AND(a, b)\n").is_err());
        assert!(parse("y = (a)\n").is_err());
        assert!(parse("y x = AND(a, b)\n").is_err());
        assert!(parse("WIBBLE(a)\n").is_err());
        assert!(parse("INPUT(a)\ny = DFF(a, a)\nOUTPUT(y)\n").is_err());
        assert!(parse("INPUT(a)\ny = CONST0(a)\nOUTPUT(y)\n").is_err());
        assert!(parse("INPUT(a)\ny = NOT(a, a)\nOUTPUT(y)\n").is_err());
        assert!(parse("INPUT(a)\ny = AND()\nOUTPUT(y)\n").is_err());
    }

    #[test]
    fn statements_in_any_order() {
        let src = "\
y = NOT(g)
OUTPUT(y)
g = AND(a, b)
INPUT(b)
INPUT(a)
";
        let n = parse(src).unwrap();
        assert_eq!(n.num_gates(), 2);
        assert_eq!(n.input_names(), &["b".to_string(), "a".to_string()]);
    }

    #[test]
    fn emit_round_trips_s27_structurally() {
        let n = parse(S27).unwrap();
        let text = emit(&n);
        let back = parse(&text).unwrap();
        assert_eq!(back.num_inputs(), n.num_inputs());
        assert_eq!(back.num_outputs(), n.num_outputs());
        assert_eq!(back.num_ffs(), n.num_ffs());
        assert_eq!(back.num_gates(), n.num_gates());
        assert_eq!(back.ff_init_values(), n.ff_init_values());
    }

    #[test]
    fn emit_preserves_init_pragmas_and_constants() {
        let src = "\
INPUT(a)
OUTPUT(y)
q = DFF(nx)
#@ init q 1
nx = XOR(a, q)
one = CONST1()
y = AND(q, one)
";
        let n = parse(src).unwrap();
        let text = emit(&n);
        assert!(text.contains("#@ init"), "{text}");
        assert!(text.contains("CONST1()"), "{text}");
        let back = parse(&text).unwrap();
        assert_eq!(back.ff_init_values(), vec![true]);
    }

    #[test]
    fn emit_avoids_input_names_that_look_like_net_ids() {
        // Inputs take SigIds 0-1, so the AND gate is SigId 2 — which the
        // naive token scheme would also call `n2`, colliding with the
        // input of that name.
        let src = "INPUT(n2)\nINPUT(b)\nOUTPUT(y)\ny = AND(n2, b)\n";
        let n = parse(src).unwrap();
        let text = emit(&n);
        let back = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(back.num_inputs(), 2);
        assert_eq!(back.num_gates(), 1);
        assert!(text.contains("n_2 = AND(n2, b)"), "{text}");
    }

    #[test]
    fn emit_aliases_shared_output_nets() {
        // Two output ports observing one net: `.bench` can only OUTPUT a
        // net once, so the second port goes through a BUFF alias.
        let mut b = crate::NetlistBuilder::new("shared");
        let a = b.input("a");
        let g = b.not(a);
        b.output("y0", g);
        b.output("y1", g);
        let n = b.finish().unwrap();
        let text = emit(&n);
        assert!(text.contains("BUFF"), "{text}");
        let back = parse(&text).unwrap();
        assert_eq!(back.num_outputs(), 2);
    }

    #[test]
    fn mux_pin_order_is_sel_d0_d1() {
        let src = "\
INPUT(s)
INPUT(d0)
INPUT(d1)
OUTPUT(y)
y = MUX(s, d0, d1)
";
        let n = parse(src).unwrap();
        let (_, mux) = n
            .iter_cells()
            .find(|(_, c)| matches!(c.kind(), CellKind::Gate(GateKind::Mux)))
            .unwrap();
        assert_eq!(mux.pins().len(), 3);
    }
}
