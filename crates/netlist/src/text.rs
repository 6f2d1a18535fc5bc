//! Line-based textual netlist format ("SNL").
//!
//! The format is deliberately close to structural BLIF so that netlists can
//! be diffed, checked into test fixtures and inspected by hand:
//!
//! ```text
//! model <name>
//! input <port>                # one per line, in order
//! const <net> <0|1>
//! gate <kind> <net> <in>...   # kind: buf not and or nand nor xor xnor mux
//! dff <net> <0|1> <d-net>     # init value, then data input
//! output <port> <net>
//! end
//! ```
//!
//! Net names may be any whitespace-free token. Forward references are
//! allowed (a `dff` may name a `d-net` defined later), which is how
//! sequential feedback loops are expressed. `#` starts a comment.
//!
//! # Example
//!
//! ```
//! let src = "\
//! model t
//! input a
//! dff q 0 nx
//! gate xor nx a q
//! output y q
//! end
//! ";
//! let n = seugrade_netlist::text::parse(src)?;
//! assert_eq!(n.num_ffs(), 1);
//! let emitted = seugrade_netlist::text::emit(&n);
//! let n2 = seugrade_netlist::text::parse(&emitted)?;
//! assert_eq!(n2.num_cells(), n.num_cells());
//! # Ok::<(), seugrade_netlist::NetlistError>(())
//! ```

use std::fmt::Write as _;

use crate::ident::EmitNames;
use crate::import::{lower, Lowering, Stmt, Stmts};
use crate::{CellKind, GateKind, Netlist, NetlistError, SigId};

/// Serializes a netlist to the SNL text format.
///
/// The emitted text parses back ([`parse`]) to a netlist with identical
/// structure: same cell/flip-flop/port ordering, same initial values.
/// Debug names are emitted as the net tokens when present.
#[must_use]
pub fn emit(netlist: &Netlist) -> String {
    let mut out = String::new();
    // Inputs are referenced by their port name (that is the net the
    // parser declares); all other nets use stable `n<i>` ids, with
    // debug names kept as trailing comments for readability. Tokens go
    // through the shared legalization pass (crate::ident) so names with
    // whitespace or `#` cannot corrupt the emitted grammar.
    let names = EmitNames::new(netlist, crate::ident::snl_legal);
    let token = |sig: SigId| -> String { names.token(sig).to_owned() };
    writeln!(out, "model {}", crate::ident::legalize(netlist.name(), crate::ident::snl_legal))
        .unwrap();
    for &sig in netlist.inputs() {
        writeln!(out, "input {}", token(sig)).unwrap();
    }
    for (id, cell) in netlist.iter_cells() {
        let comment = netlist
            .cell_name(id)
            .map(|n| format!("  # {n}"))
            .unwrap_or_default();
        match cell.kind() {
            CellKind::Input => {}
            CellKind::Const(v) => {
                writeln!(out, "const {} {}{comment}", token(id), u8::from(v)).unwrap();
            }
            CellKind::Gate(kind) => {
                let pins: Vec<String> = cell.pins().iter().map(|&p| token(p)).collect();
                writeln!(
                    out,
                    "gate {} {} {}{comment}",
                    kind.mnemonic(),
                    token(id),
                    pins.join(" ")
                )
                .unwrap();
            }
            CellKind::Dff { init } => {
                writeln!(
                    out,
                    "dff {} {} {}{comment}",
                    token(id),
                    u8::from(init),
                    token(cell.pins()[0])
                )
                .unwrap();
            }
        }
    }
    for (name, sig) in netlist.outputs() {
        // Port names live in their own namespace; legalize without
        // renaming away legitimate overlaps with net tokens.
        let port = crate::ident::legalize(name, crate::ident::snl_legal);
        writeln!(out, "output {port} {}", token(*sig)).unwrap();
    }
    writeln!(out, "end").unwrap();
    out
}

/// Parses SNL text into a validated [`Netlist`].
///
/// Statements may reference nets defined later in the file (two-pass
/// resolution), so any topological order — including none — is accepted.
/// Lowering and validation are shared with the `.bench` and BLIF
/// frontends through [`crate::import`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for malformed lines,
/// [`NetlistError::UnknownNet`] for references to nets never defined,
/// [`NetlistError::CombinationalLoop`] for gates that form a cycle, and
/// any validation error from
/// [`NetlistBuilder::finish`](crate::NetlistBuilder::finish).
/// Parse-layer errors carry 1-based line numbers; see the
/// [error contract](crate::NetlistError).
pub fn parse(src: &str) -> Result<Netlist, NetlistError> {
    parse_with(src, lower)
}

/// [`parse`] through the given lowering: the unit tests check the
/// shared lowering against a reference one through here.
pub(crate) fn parse_with(src: &str, lower: Lowering) -> Result<Netlist, NetlistError> {
    let mut model_name = String::from("unnamed");
    let mut stmts = Stmts::default();
    let mut saw_end = false;

    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        if saw_end {
            return Err(NetlistError::Parse {
                line,
                msg: "content after `end`".into(),
            });
        }
        let mut toks = text.split_whitespace();
        let head = toks.next().unwrap();
        let rest: Vec<&str> = toks.collect();
        let parse_bit = |s: &str| -> Result<bool, NetlistError> {
            match s {
                "0" => Ok(false),
                "1" => Ok(true),
                other => Err(NetlistError::Parse {
                    line,
                    msg: format!("expected 0 or 1, found `{other}`"),
                }),
            }
        };
        match head {
            "model" => {
                if rest.len() != 1 {
                    return Err(NetlistError::Parse {
                        line,
                        msg: "model takes exactly one name".into(),
                    });
                }
                model_name = rest[0].to_owned();
            }
            "input" => {
                if rest.len() != 1 {
                    return Err(NetlistError::Parse {
                        line,
                        msg: "input takes exactly one name".into(),
                    });
                }
                stmts.push(line, Stmt::Input { name: rest[0] });
            }
            "const" => {
                if rest.len() != 2 {
                    return Err(NetlistError::Parse {
                        line,
                        msg: "const takes <net> <0|1>".into(),
                    });
                }
                stmts.push(line, Stmt::Const { net: rest[0], value: parse_bit(rest[1])? });
            }
            "gate" => {
                if rest.len() < 3 {
                    return Err(NetlistError::Parse {
                        line,
                        msg: "gate takes <kind> <net> <in>...".into(),
                    });
                }
                let kind = GateKind::from_mnemonic(rest[0]).ok_or_else(|| NetlistError::Parse {
                    line,
                    msg: format!("unknown gate kind `{}`", rest[0]),
                })?;
                stmts.gate(line, kind, rest[1], rest[2..].iter().copied());
            }
            "dff" => {
                if rest.len() != 3 {
                    return Err(NetlistError::Parse {
                        line,
                        msg: "dff takes <net> <init> <d-net>".into(),
                    });
                }
                stmts.push(line, Stmt::Dff { net: rest[0], init: parse_bit(rest[1])?, d: rest[2] });
            }
            "output" => {
                if rest.len() != 2 {
                    return Err(NetlistError::Parse {
                        line,
                        msg: "output takes <port> <net>".into(),
                    });
                }
                stmts.push(line, Stmt::Output { name: rest[0], net: rest[1] });
            }
            "end" => {
                if !rest.is_empty() {
                    return Err(NetlistError::Parse {
                        line,
                        msg: "end takes no arguments".into(),
                    });
                }
                saw_end = true;
            }
            other => {
                return Err(NetlistError::Parse {
                    line,
                    msg: format!("unknown statement `{other}`"),
                });
            }
        }
    }

    lower(model_name, &stmts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("sample");
        let a = b.input("a");
        let c = b.input("b");
        let q = b.dff(true);
        let g1 = b.and2(a, c);
        let g2 = b.xor2(g1, q);
        let m = b.mux(a, g2, q);
        b.connect_dff(q, m).unwrap();
        b.output("y", g2);
        b.output("z", q);
        b.finish().unwrap()
    }

    #[test]
    fn emit_parse_roundtrip_preserves_structure() {
        let n = sample();
        let text = emit(&n);
        let n2 = parse(&text).unwrap();
        assert_eq!(n2.name(), n.name());
        assert_eq!(n2.num_cells(), n.num_cells());
        assert_eq!(n2.num_ffs(), n.num_ffs());
        assert_eq!(n2.num_inputs(), n.num_inputs());
        assert_eq!(n2.num_outputs(), n.num_outputs());
        assert_eq!(n2.ff_init_values(), n.ff_init_values());
        // Cell-by-cell equality of kinds.
        for ((_, c1), (_, c2)) in n.iter_cells().zip(n2.iter_cells()) {
            assert_eq!(c1.kind(), c2.kind());
        }
    }

    #[test]
    fn forward_reference_dff() {
        let src = "\
model fwd
input a
dff q 1 nx
gate xor nx a q
output y q
end
";
        let n = parse(src).unwrap();
        assert_eq!(n.num_ffs(), 1);
        assert_eq!(n.ff_init_values(), vec![true]);
    }

    #[test]
    fn out_of_order_gates() {
        let src = "\
model ooo
input a
gate not g2 g1
gate not g1 a
output y g2
end
";
        let n = parse(src).unwrap();
        assert_eq!(n.num_gates(), 2);
    }

    #[test]
    fn unknown_net_reported() {
        let src = "\
model bad
input a
gate and g a missing
output y g
end
";
        let err = parse(src).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownNet { name, .. } if name == "missing"));
    }

    #[test]
    fn unknown_statement_reported() {
        let err = parse("bogus x y\nend\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 1, .. }));
    }

    #[test]
    fn duplicate_net_rejected() {
        let src = "\
model dup
input a
input a2
gate not a2dup a
gate not a2dup a2
output y a2dup
end
";
        // second definition of `a2dup`
        let err = parse(src).unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. } | NetlistError::CombinationalLoop { .. }));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "\n# a comment\nmodel c   # trailing\ninput a\noutput y a\n\nend\n";
        let n = parse(src).unwrap();
        assert_eq!(n.name(), "c");
    }

    #[test]
    fn const_nets() {
        let src = "\
model k
const one 1
const zero 0
gate or both one zero
output y both
end
";
        let n = parse(src).unwrap();
        assert_eq!(n.num_outputs(), 1);
    }

    #[test]
    fn content_after_end_rejected() {
        let err = parse("model m\nend\ninput a\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 3, .. }));
    }

    #[test]
    fn bad_init_bit_rejected() {
        let err = parse("model m\ninput a\ndff q 2 a\nend\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 3, .. }));
    }
}
