//! Netlist ingestion: shared lowering, format detection, buffer
//! sweeping and import statistics.
//!
//! This module is the common back half of every textual frontend in the
//! crate — the native [SNL format](crate::text), the ISCAS'85/'89
//! [`.bench` format](crate::bench), the [structural BLIF
//! subset](crate::blif), the [structural Verilog subset](crate::vlog)
//! and the [ITC'99-style VHDL subset](crate::vhdl). Each frontend
//! tokenizes its own surface syntax
//! into the shared statement IR (`Stmt`, crate-internal) and hands it
//! to the one lowering path, which:
//!
//! 1. rejects duplicate net definitions and duplicate output ports with
//!    source line numbers;
//! 2. declares inputs, constants and flip-flops so forward references
//!    resolve;
//! 3. orders gates by a dependency worklist (any statement order is
//!    accepted, at the same cost) and reports never-defined nets as
//!    [`NetlistError::UnknownNet`];
//! 4. closes sequential loops and validates the result through
//!    [`NetlistBuilder::finish`] (dangling signals, levelization /
//!    combinational-cycle check, flip-flop connectivity).
//!
//! The user-facing entry points are [`import_str`] and [`import_path`],
//! which add [format detection](SourceFormat), an optional buffer sweep
//! and an [`ImportStats`] report on top of the raw parsers. The on-disk
//! grammars themselves are specified in `docs/FORMATS.md` at the
//! repository root.
//!
//! # Example
//!
//! ```
//! use seugrade_netlist::import::{import_str, SourceFormat};
//!
//! let src = "\
//! INPUT(a)
//! OUTPUT(y)
//! q = DFF(nx)
//! nx = XOR(a, q)
//! y = BUF(q)
//! ";
//! let imported = import_str(src, SourceFormat::Bench)?;
//! assert_eq!(imported.netlist.num_ffs(), 1);
//! assert_eq!(imported.stats.swept_buffers, 1); // the BUF was swept
//! # Ok::<(), seugrade_netlist::NetlistError>(())
//! ```

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::path::Path;

use crate::{Cell, CellKind, GateKind, Netlist, NetlistBuilder, NetlistError, SigId};

/// One frontend-independent netlist statement.
///
/// Net references are plain tokens; resolution (including forward
/// references) happens in [`lower`].
#[derive(Clone, Debug)]
pub(crate) enum Stmt<'a> {
    /// A primary input declaration.
    Input {
        /// Port (and net) name.
        name: &'a str,
    },
    /// A constant driver.
    Const {
        /// Net name.
        net: &'a str,
        /// Driven value.
        value: bool,
    },
    /// A combinational gate.
    Gate {
        /// Gate function.
        kind: GateKind,
        /// Output net name.
        net: &'a str,
        /// Input net names, in pin order: a range of the
        /// [`Stmts`] pin pool.
        pins: Range<usize>,
    },
    /// A D flip-flop.
    Dff {
        /// Output net name.
        net: &'a str,
        /// Cycle-0 value.
        init: bool,
        /// Data-input net name (forward references allowed).
        d: &'a str,
    },
    /// A primary output declaration.
    Output {
        /// Port name.
        name: &'a str,
        /// Driven-by net name.
        net: &'a str,
    },
}

/// A frontend's statements in source order, each tagged with its
/// 1-based source line for error reporting, and one pool holding the
/// pin names of every gate.
#[derive(Debug, Default)]
pub(crate) struct Stmts<'a> {
    pub(crate) list: Vec<(usize, Stmt<'a>)>,
    /// Gate pin names; each gate reads its own range. A frontend may
    /// also stage a statement's arguments at the end and truncate them
    /// away.
    pub(crate) pins: Vec<&'a str>,
    /// Power-on values set by flip-flop name (`.bench`'s `#@ init`
    /// pragma) as `(line, net, value)`, in file order, one per net.
    pub(crate) inits: Vec<(usize, &'a str, bool)>,
}

impl<'a> Stmts<'a> {
    /// Appends a statement.
    pub(crate) fn push(&mut self, line: usize, stmt: Stmt<'a>) {
        self.list.push((line, stmt));
    }

    /// Appends a gate statement whose pins are `pins`.
    pub(crate) fn gate(
        &mut self,
        line: usize,
        kind: GateKind,
        net: &'a str,
        pins: impl IntoIterator<Item = &'a str>,
    ) {
        let start = self.pins.len();
        self.pins.extend(pins);
        self.push(line, Stmt::Gate { kind, net, pins: start..self.pins.len() });
    }
}

/// A lowering of a frontend's statements: [`lower`], or a reference
/// one in the unit tests.
pub(crate) type Lowering = fn(String, &Stmts<'_>) -> Result<Netlist, NetlistError>;

/// A statement's index in [`Stmts::list`], as the lowering tables hold it.
type StmtIx = u32;

/// Lowers a frontend's statement list into a validated [`Netlist`].
///
/// This is the shared import layer: every textual frontend funnels
/// through here, so duplicate/undefined-net diagnostics, gate ordering
/// and final validation behave identically across formats.
///
/// Gates are ordered by a dependency worklist in
/// O(statements + pins): a gate becomes ready once every gate it reads
/// exists. Cells come out in the order of a sweep that visits the
/// pending gates in file order, round after round, and creates each
/// one as soon as its pins exist: by that sweep's round, then by file
/// position. Statement order therefore changes neither the netlist nor
/// the cost of building it. Power-on values set by name
/// ([`Stmts::inits`]) are matched to their flip-flops through the same
/// name table.
pub(crate) fn lower(model_name: String, stmts: &Stmts<'_>) -> Result<Netlist, NetlistError> {
    let list = &stmts.list;
    // The one name table: net name → its defining statement. Keyed by
    // the standard library's randomly seeded hasher, since the names
    // come from untrusted input.
    let mut defs: HashMap<&str, StmtIx> = HashMap::with_capacity(list.len());
    let mut out_ports: HashSet<&str> = HashSet::new();
    for (i, (line, stmt)) in list.iter().enumerate() {
        let twice = match stmt {
            Stmt::Input { name: net }
            | Stmt::Const { net, .. }
            | Stmt::Dff { net, .. }
            | Stmt::Gate { net, .. } => {
                defs.insert(net, i as StmtIx).map(|_| format!("net `{net}` defined twice"))
            }
            Stmt::Output { name, .. } => {
                (!out_ports.insert(name)).then(|| format!("output `{name}` declared twice"))
            }
        };
        if let Some(msg) = twice {
            return Err(NetlistError::Parse { line: *line, msg });
        }
    }
    drop(out_ports);

    // Power-on values set by name, in statement order; each must name
    // a flip-flop (anything else is most likely a typo in the name).
    let mut inits: Vec<(StmtIx, bool)> = Vec::with_capacity(stmts.inits.len());
    for &(line, net, value) in &stmts.inits {
        match defs.get(net) {
            Some(&d) if matches!(list[d as usize].1, Stmt::Dff { .. }) => inits.push((d, value)),
            _ => {
                return Err(NetlistError::Parse {
                    line,
                    msg: format!("init pragma names `{net}`, which is not a DFF"),
                })
            }
        }
    }
    inits.sort_unstable();

    // Resolve every name read to its defining statement, `UNDEFINED`
    // when no statement defines it: the pin pool into `pin_def` (entry
    // for entry), flip-flop data pins and output nets into `net_def`,
    // in file order. The first gate in file order that reads a
    // never-defined net is the error; a flip-flop or output that does
    // is reported after the gates are ordered.
    const UNDEFINED: StmtIx = StmtIx::MAX;
    let resolve = |net: &str| defs.get(net).copied().unwrap_or(UNDEFINED);
    let pin_def: Vec<StmtIx> = stmts.pins.iter().map(|p| resolve(p)).collect();
    let mut net_def: Vec<StmtIx> = Vec::new();
    for (_, stmt) in list {
        if let Stmt::Dff { d: net, .. } | Stmt::Output { net, .. } = stmt {
            net_def.push(resolve(net));
        }
    }
    drop(defs);
    let gate: Vec<bool> = list.iter().map(|(_, s)| matches!(s, Stmt::Gate { .. })).collect();
    let gate_pins = |i: usize| match &list[i].1 {
        Stmt::Gate { pins, .. } => pins.clone(),
        _ => 0..0,
    };

    // The gates reading each gate (CSR by statement index: gate `d`'s
    // readers are `readers[readers_start[d]..readers_start[d + 1]]`, in
    // file order), and how many gate pins each gate still waits for.
    let n = list.len();
    let mut readers_start: Vec<StmtIx> = vec![0; n + 1];
    let mut waiting: Vec<StmtIx> = vec![0; n];
    for g in 0..n {
        for k in gate_pins(g) {
            let d = pin_def[k];
            if d == UNDEFINED {
                let (line, name) = (list[g].0, stmts.pins[k].to_owned());
                return Err(NetlistError::UnknownNet { line, name });
            }
            if gate[d as usize] {
                readers_start[d as usize] += 1;
                waiting[g] += 1;
            }
        }
    }
    let mut total = 0;
    for start in &mut readers_start {
        total += *start;
        *start = total;
    }
    let mut readers: Vec<StmtIx> = vec![0; total as usize];
    for g in (0..n).rev() {
        for &d in pin_def[gate_pins(g)].iter().rev() {
            if gate[d as usize] {
                readers_start[d as usize] -= 1;
                readers[readers_start[d as usize] as usize] = g as StmtIx;
            }
        }
    }

    // The worklist. A gate's sweep round is at least 1, and at least
    // each gate pin's round — one more when that pin is defined further
    // down the file, which a file-order sweep reaches only in the next
    // round.
    let mut ready: Vec<StmtIx> =
        (0..n).filter(|&g| waiting[g] == 0 && gate[g]).map(|g| g as StmtIx).collect();
    let mut round: Vec<StmtIx> = vec![1; n];
    let mut next = 0;
    while next < ready.len() {
        let q = ready[next] as usize;
        next += 1;
        for &g in &readers[readers_start[q] as usize..readers_start[q + 1] as usize] {
            let g = g as usize;
            round[g] = round[g].max(round[q] + StmtIx::from(q > g));
            waiting[g] -= 1;
            if waiting[g] == 0 {
                ready.push(g as StmtIx);
            }
        }
    }
    let num_gates = gate.iter().filter(|&&g| g).count();
    if ready.len() < num_gates {
        // Every name exists but these gates never became ready: a
        // combinational loop. The cells were never created, so report
        // placeholder ids.
        let cells: Vec<SigId> = (0..num_gates - ready.len()).map(SigId::new).collect();
        return Err(NetlistError::CombinationalLoop { cells });
    }
    drop((readers, readers_start, waiting));

    // Creation order: by round, then file position (a counting sort).
    let max_round = ready.iter().map(|&g| round[g as usize]).max().unwrap_or(0) as usize;
    let mut round_start: Vec<StmtIx> = vec![0; max_round + 2];
    for &g in &ready {
        round_start[round[g as usize] as usize + 1] += 1;
    }
    for r in 0..=max_round {
        round_start[r + 1] += round_start[r];
    }
    let mut order: Vec<StmtIx> = vec![0; ready.len()];
    for g in (0..n).filter(|&g| gate[g]) {
        let at = &mut round_start[round[g] as usize];
        order[*at as usize] = g as StmtIx;
        *at += 1;
    }
    drop((ready, round, round_start));

    let mut b = NetlistBuilder::new(model_name);
    // The signal of each statement; inputs, constants and flip-flops
    // first, so forward references resolve (flip-flop outputs are the
    // sequential feedback points).
    let mut sig: Vec<SigId> = vec![SigId::INVALID; n];
    let mut inits = inits.into_iter().peekable();
    for (i, (_, stmt)) in list.iter().enumerate() {
        sig[i] = match stmt {
            Stmt::Input { name } => b.input(*name),
            // Constants are deduplicated by the builder: several const
            // nets of the same value alias one cell.
            Stmt::Const { value, .. } => b.constant(*value),
            Stmt::Dff { init, .. } => {
                let set = inits.next_if(|&(d, _)| d as usize == i);
                b.dff(set.map_or(*init, |(_, value)| value))
            }
            Stmt::Gate { .. } | Stmt::Output { .. } => continue,
        };
    }
    let mut pin_sigs: Vec<SigId> = Vec::new();
    for &g in &order {
        let g = g as usize;
        let Stmt::Gate { kind, .. } = list[g].1 else { unreachable!("order holds gates only") };
        pin_sigs.clear();
        pin_sigs.extend(pin_def[gate_pins(g)].iter().map(|&d| sig[d as usize]));
        sig[g] = b.gate(kind, &pin_sigs);
    }
    drop((order, pin_def, pin_sigs));

    // Close sequential loops and declare outputs.
    let mut net_defs = net_def.iter();
    for (i, (line, stmt)) in list.iter().enumerate() {
        let (port, net) = match stmt {
            Stmt::Dff { d, .. } => (None, d),
            Stmt::Output { name, net } => (Some(name), net),
            _ => continue,
        };
        let def = *net_defs.next().expect("one entry per flip-flop and output");
        if def == UNDEFINED {
            return Err(NetlistError::UnknownNet { line: *line, name: (*net).to_owned() });
        }
        match port {
            None => b.connect_dff(sig[i], sig[def as usize])?,
            Some(name) => b.output(*name, sig[def as usize]),
        }
    }
    drop((net_def, sig));

    b.finish()
}

/// The on-disk netlist formats the import layer understands.
///
/// Grammars for all five are specified in `docs/FORMATS.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SourceFormat {
    /// The crate's native line-based format ([`crate::text`]).
    Snl,
    /// ISCAS'85/'89 `.bench` ([`crate::bench`]).
    Bench,
    /// Structural BLIF subset ([`crate::blif`]).
    Blif,
    /// Structural Verilog subset ([`crate::vlog`]).
    Verilog,
    /// ITC'99-style VHDL subset ([`crate::vhdl`], import only).
    Vhdl,
}

impl SourceFormat {
    /// Guesses the format from a file extension (`snl`, `bench`, `blif`,
    /// `v`/`vlog`, `vhd`/`vhdl`; case-insensitive). Returns `None` for
    /// anything else.
    #[must_use]
    pub fn from_extension(path: &Path) -> Option<Self> {
        let ext = path.extension()?.to_str()?.to_ascii_lowercase();
        match ext.as_str() {
            "snl" => Some(SourceFormat::Snl),
            "bench" => Some(SourceFormat::Bench),
            "blif" => Some(SourceFormat::Blif),
            "v" | "vlog" => Some(SourceFormat::Verilog),
            "vhd" | "vhdl" => Some(SourceFormat::Vhdl),
            _ => None,
        }
    }

    /// Guesses the format from file contents.
    ///
    /// The first non-blank, non-`#`-comment line decides: a `//` or
    /// `/*` comment or a leading `module` keyword means Verilog; a `--`
    /// comment or a leading `entity`/`library`/`use`/`architecture`
    /// keyword (case-insensitive) means VHDL; a `.` keyword means BLIF;
    /// `INPUT(`/`OUTPUT(`/`=` assignments mean `.bench`; everything
    /// else is assumed to be SNL.
    #[must_use]
    pub fn sniff(src: &str) -> Self {
        for raw in src.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line.starts_with("//") || line.starts_with("/*") {
                return SourceFormat::Verilog;
            }
            if line.starts_with("--") {
                return SourceFormat::Vhdl;
            }
            if line.starts_with('.') {
                return SourceFormat::Blif;
            }
            let first = line.split_whitespace().next().unwrap_or("");
            if first == "module" {
                return SourceFormat::Verilog;
            }
            if ["entity", "library", "use", "architecture"]
                .iter()
                .any(|kw| first.eq_ignore_ascii_case(kw))
            {
                return SourceFormat::Vhdl;
            }
            if line.contains('=')
                || line.to_ascii_uppercase().starts_with("INPUT(")
                || line.to_ascii_uppercase().starts_with("OUTPUT(")
            {
                return SourceFormat::Bench;
            }
            return SourceFormat::Snl;
        }
        SourceFormat::Snl
    }

    /// Lower-case label (`snl`, `bench`, `blif`, `verilog`, `vhdl`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SourceFormat::Snl => "snl",
            SourceFormat::Bench => "bench",
            SourceFormat::Blif => "blif",
            SourceFormat::Verilog => "verilog",
            SourceFormat::Vhdl => "vhdl",
        }
    }

    /// Parses a label produced by [`label`](Self::label); the file
    /// extensions (`v`, `vlog`, `vhd`) are accepted as aliases.
    #[must_use]
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "snl" => Some(SourceFormat::Snl),
            "bench" => Some(SourceFormat::Bench),
            "blif" => Some(SourceFormat::Blif),
            "verilog" | "v" | "vlog" => Some(SourceFormat::Verilog),
            "vhdl" | "vhd" => Some(SourceFormat::Vhdl),
            _ => None,
        }
    }
}

impl fmt::Display for SourceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Knobs for [`import_str_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImportOptions {
    /// Remove identity buffers by rewiring their consumers (default
    /// `true`). Mapped benchmark netlists are full of `BUF`s that would
    /// otherwise waste simulator cells.
    pub sweep_buffers: bool,
}

impl Default for ImportOptions {
    fn default() -> Self {
        ImportOptions { sweep_buffers: true }
    }
}

/// What an import did, for reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImportStats {
    /// The frontend that parsed the source.
    pub format: SourceFormat,
    /// Cells produced by the parser, before sweeping.
    pub parsed_cells: usize,
    /// Identity buffers removed by the sweep (0 when disabled).
    pub swept_buffers: usize,
    /// Primary inputs of the imported netlist.
    pub inputs: usize,
    /// Primary outputs of the imported netlist.
    pub outputs: usize,
    /// Flip-flops of the imported netlist.
    pub ffs: usize,
    /// Combinational gates after sweeping.
    pub gates: usize,
}

impl fmt::Display for ImportStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} import: {} in, {} out, {} FF, {} gates ({} parsed cells, {} buffers swept)",
            self.format, self.inputs, self.outputs, self.ffs, self.gates,
            self.parsed_cells, self.swept_buffers
        )
    }
}

/// A successfully imported netlist plus its [`ImportStats`].
#[derive(Clone, Debug)]
pub struct Imported {
    /// The validated (and, by default, buffer-swept) netlist.
    pub netlist: Netlist,
    /// What the import did.
    pub stats: ImportStats,
}

/// Imports netlist text in the given format with default options
/// (buffer sweeping on).
///
/// # Errors
///
/// Propagates the frontend's parse errors and the shared validation
/// errors; see the [error contract](crate::NetlistError).
pub fn import_str(src: &str, format: SourceFormat) -> Result<Imported, NetlistError> {
    import_str_with(src, format, ImportOptions::default())
}

/// Imports netlist text with explicit [`ImportOptions`].
///
/// # Errors
///
/// Propagates the frontend's parse errors and the shared validation
/// errors; see the [error contract](crate::NetlistError).
pub fn import_str_with(
    src: &str,
    format: SourceFormat,
    options: ImportOptions,
) -> Result<Imported, NetlistError> {
    let parsed = match format {
        SourceFormat::Snl => crate::text::parse(src)?,
        SourceFormat::Bench => crate::bench::parse(src)?,
        SourceFormat::Blif => crate::blif::parse(src)?,
        SourceFormat::Verilog => crate::vlog::parse(src)?,
        SourceFormat::Vhdl => crate::vhdl::parse(src)?,
    };
    let parsed_cells = parsed.num_cells();
    let (netlist, swept_buffers) = match options.sweep_buffers.then(|| swept(&parsed)).flatten() {
        Some(swept) => swept,
        None => (parsed, 0),
    };
    let stats = ImportStats {
        format,
        parsed_cells,
        swept_buffers,
        inputs: netlist.num_inputs(),
        outputs: netlist.num_outputs(),
        ffs: netlist.num_ffs(),
        gates: netlist.num_gates(),
    };
    Ok(Imported { netlist, stats })
}

/// Error type of [`import_path`]: either the file could not be read, or
/// its contents failed to import.
#[derive(Clone, Debug)]
pub enum ImportError {
    /// Reading the file failed.
    Io {
        /// The path that failed.
        path: String,
        /// The I/O error message.
        msg: String,
    },
    /// The contents failed to parse or validate.
    Netlist {
        /// The path being imported.
        path: String,
        /// The underlying error (carries a line number where available).
        source: NetlistError,
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Io { path, msg } => write!(f, "cannot read {path}: {msg}"),
            ImportError::Netlist { path, source } => write!(f, "{path}: {source}"),
        }
    }
}

impl Error for ImportError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ImportError::Io { .. } => None,
            ImportError::Netlist { source, .. } => Some(source),
        }
    }
}

/// Reads and imports a netlist file, detecting the format from the
/// extension (falling back to [`SourceFormat::sniff`] on the contents).
///
/// # Errors
///
/// Returns [`ImportError::Io`] when the file cannot be read and
/// [`ImportError::Netlist`] when its contents fail to import.
pub fn import_path(path: impl AsRef<Path>) -> Result<Imported, ImportError> {
    import_path_with(path, None, ImportOptions::default())
}

/// [`import_path`] with an explicit format override and options.
///
/// # Errors
///
/// Returns [`ImportError::Io`] when the file cannot be read and
/// [`ImportError::Netlist`] when its contents fail to import.
pub fn import_path_with(
    path: impl AsRef<Path>,
    format: Option<SourceFormat>,
    options: ImportOptions,
) -> Result<Imported, ImportError> {
    let path = path.as_ref();
    let display = path.display().to_string();
    let src = std::fs::read_to_string(path).map_err(|e| ImportError::Io {
        path: display.clone(),
        msg: e.to_string(),
    })?;
    let format = format
        .or_else(|| SourceFormat::from_extension(path))
        .unwrap_or_else(|| SourceFormat::sniff(&src));
    let mut imported = import_str_with(&src, format, options)
        .map_err(|source| ImportError::Netlist { path: display, source })?;
    // `.bench` has no name directive and `.model`/`model` lines are
    // optional elsewhere; when the source left the default in place,
    // the file stem is the better label.
    let is_default = matches!(imported.netlist.name(), "bench" | "blif" | "unnamed");
    if is_default {
        if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
            imported.netlist.name = stem.to_owned();
        }
    }
    Ok(imported)
}

/// Removes identity buffers by rewiring every consumer (gate pins, DFF
/// data inputs and primary outputs) to the buffer's driver, then
/// compacting cell ids. Returns the swept netlist and the number of
/// buffers removed.
///
/// The circuit function, port interface and flip-flop order are
/// preserved; only `Buf` cells (including chains of them) disappear.
/// Debug names attached to swept buffers are dropped.
#[must_use]
pub fn sweep_buffers(netlist: &Netlist) -> (Netlist, usize) {
    swept(netlist).unwrap_or_else(|| (netlist.clone(), 0))
}

/// [`sweep_buffers`], or `None` when the netlist has no buffer to
/// sweep (so the caller keeps its netlist instead of a copy).
fn swept(netlist: &Netlist) -> Option<(Netlist, usize)> {
    let n = netlist.num_cells();
    let is_buf = |i: usize| matches!(netlist.cells[i].kind(), CellKind::Gate(GateKind::Buf));
    let removed = (0..n).filter(|&i| is_buf(i)).count();
    if removed == 0 {
        return None;
    }

    // Resolve each signal through any chain of buffers to its root
    // driver, memoized so every chain is walked once (cell ids need not
    // be topological). Buffer chains are acyclic because the
    // combinational part of a validated netlist is acyclic.
    const UNRESOLVED: u32 = u32::MAX;
    let mut root = vec![UNRESOLVED; n];
    let mut chain = Vec::new();
    for i in 0..n {
        let mut cur = i;
        while root[cur] == UNRESOLVED {
            if is_buf(cur) {
                chain.push(cur);
                cur = netlist.cells[cur].pins()[0].index();
            } else {
                root[cur] = cur as u32;
            }
        }
        let r = root[cur];
        for link in chain.drain(..) {
            root[link] = r;
        }
    }

    // Compact: survivors keep their relative order.
    let mut new_id = vec![UNRESOLVED; n];
    let mut cells: Vec<Cell> = Vec::with_capacity(n - removed);
    for (i, cell) in netlist.cells.iter().enumerate() {
        if !is_buf(i) {
            new_id[i] = cells.len() as u32;
            cells.push(cell.clone());
        }
    }
    let map = |sig: SigId| SigId::new(new_id[root[sig.index()] as usize] as usize);
    for cell in &mut cells {
        for pin in cell.pins_mut() {
            *pin = map(*pin);
        }
    }

    let inputs: Vec<SigId> = netlist.inputs.iter().map(|&i| map(i)).collect();
    let outputs: Vec<(String, SigId)> = netlist
        .outputs
        .iter()
        .map(|(name, s)| (name.clone(), map(*s)))
        .collect();
    let ffs: Vec<SigId> = netlist.ffs.iter().map(|&f| map(f)).collect();
    let cell_names = netlist
        .cell_names
        .iter()
        .filter(|(old, _)| !is_buf(old.index()))
        .map(|(old, name)| (SigId::new(new_id[old.index()] as usize), name.clone()))
        .collect();

    let swept = Netlist {
        name: netlist.name.clone(),
        cells,
        inputs,
        input_names: netlist.input_names.clone(),
        outputs,
        ffs,
        cell_names,
    };
    debug_assert!(swept.levelize().is_ok(), "sweep broke the netlist");
    Some((swept, removed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lowering the dependency worklist replaced, kept as the
    /// reference: gates are retried in file order, sweep after sweep,
    /// until none is left or a sweep creates none. The worklist must
    /// reproduce its netlist cell for cell, and its errors.
    fn sweep_lower(model_name: String, stmts: &Stmts<'_>) -> Result<Netlist, NetlistError> {
        let list = &stmts.list;
        let mut inits: HashMap<&str, bool> = HashMap::new();
        {
            let mut defined: HashMap<&str, &Stmt<'_>> = HashMap::new();
            let mut out_ports: HashMap<&str, usize> = HashMap::new();
            for (line, stmt) in list {
                let (twice, msg) = match stmt {
                    Stmt::Input { name: net }
                    | Stmt::Const { net, .. }
                    | Stmt::Dff { net, .. }
                    | Stmt::Gate { net, .. } => {
                        (defined.insert(net, stmt).is_some(), format!("net `{net}` defined twice"))
                    }
                    Stmt::Output { name, .. } => (
                        out_ports.insert(name, *line).is_some(),
                        format!("output `{name}` declared twice"),
                    ),
                };
                if twice {
                    return Err(NetlistError::Parse { line: *line, msg });
                }
            }
            for &(line, net, value) in &stmts.inits {
                if !matches!(defined.get(net), Some(Stmt::Dff { .. })) {
                    let msg = format!("init pragma names `{net}`, which is not a DFF");
                    return Err(NetlistError::Parse { line, msg });
                }
                inits.insert(net, value);
            }
        }
        let mut b = NetlistBuilder::new(model_name);
        let mut nets: HashMap<&str, SigId> = HashMap::new();
        for (_, stmt) in list {
            match stmt {
                Stmt::Input { name } => {
                    nets.insert(name, b.input(*name));
                }
                Stmt::Const { net, value } => {
                    nets.insert(net, b.constant(*value));
                }
                Stmt::Dff { net, init, .. } => {
                    nets.insert(net, b.dff(inits.get(net).copied().unwrap_or(*init)));
                }
                _ => {}
            }
        }
        let mut pending: Vec<&(usize, Stmt<'_>)> =
            list.iter().filter(|(_, s)| matches!(s, Stmt::Gate { .. })).collect();
        loop {
            let before = pending.len();
            pending.retain(|(_, stmt)| {
                let Stmt::Gate { kind, net, pins } = stmt else { unreachable!() };
                let resolved: Option<Vec<SigId>> =
                    stmts.pins[pins.clone()].iter().map(|p| nets.get(p).copied()).collect();
                match resolved {
                    Some(pin_ids) => {
                        let id = b.gate(*kind, &pin_ids);
                        nets.insert(net, id);
                        false
                    }
                    None => true,
                }
            });
            if pending.is_empty() || pending.len() == before {
                break;
            }
        }
        if !pending.is_empty() {
            let all_defined: HashSet<&str> = list
                .iter()
                .filter_map(|(_, s)| match s {
                    Stmt::Input { name } => Some(*name),
                    Stmt::Const { net, .. } | Stmt::Dff { net, .. } | Stmt::Gate { net, .. } => {
                        Some(*net)
                    }
                    Stmt::Output { .. } => None,
                })
                .collect();
            for (line, stmt) in &pending {
                let Stmt::Gate { pins, .. } = stmt else { unreachable!() };
                for p in &stmts.pins[pins.clone()] {
                    if !all_defined.contains(p) {
                        return Err(NetlistError::UnknownNet {
                            line: *line,
                            name: (*p).to_owned(),
                        });
                    }
                }
            }
            let cells: Vec<SigId> = (0..pending.len()).map(SigId::new).collect();
            return Err(NetlistError::CombinationalLoop { cells });
        }
        for (line, stmt) in list {
            match stmt {
                Stmt::Dff { net, d, .. } => {
                    let d_id = *nets.get(d).ok_or_else(|| NetlistError::UnknownNet {
                        line: *line,
                        name: (*d).to_owned(),
                    })?;
                    b.connect_dff(nets[net], d_id)?;
                }
                Stmt::Output { name, net } => {
                    let sig = *nets.get(net).ok_or_else(|| NetlistError::UnknownNet {
                        line: *line,
                        name: (*net).to_owned(),
                    })?;
                    b.output(*name, sig);
                }
                _ => {}
            }
        }
        b.finish()
    }

    /// A small xorshift stream for the generated sources.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// A random sequential netlist: every gate kind, constants, and
    /// flip-flops read by gates and by each other.
    fn random_netlist(seed: u64, gates: usize) -> Netlist {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut b = NetlistBuilder::new("gen");
        let mut pool: Vec<SigId> = (0..4).map(|i| b.input(format!("i{i}"))).collect();
        let ffs: Vec<SigId> = (0..6).map(|i| b.dff(i % 2 == 1)).collect();
        pool.extend(&ffs);
        pool.push(b.constant(true));
        for _ in 0..gates {
            let kind = GateKind::ALL[rng.below(GateKind::ALL.len())];
            let arity = match kind {
                GateKind::Not | GateKind::Buf => 1,
                GateKind::Mux => 3,
                GateKind::Nand | GateKind::Nor => 2,
                _ => 2 + rng.below(2),
            };
            let pins: Vec<SigId> = (0..arity).map(|_| pool[rng.below(pool.len())]).collect();
            pool.push(b.gate(kind, &pins));
        }
        for (i, &ff) in ffs.iter().enumerate() {
            // Every other flip-flop reads a flip-flop directly.
            let d = if i % 2 == 0 { ffs[(i + 1) % ffs.len()] } else { pool[pool.len() - 1 - i] };
            b.connect_dff(ff, d).unwrap();
        }
        for k in 0..3 {
            b.output(format!("o{k}"), pool[pool.len() - 1 - 2 * k]);
        }
        b.finish().unwrap()
    }

    /// The same netlist in the VHDL subset (which has no emitter):
    /// one concurrent assignment per gate, one registered assignment
    /// per flip-flop.
    fn vhdl_source(n: &Netlist) -> String {
        let name = |s: SigId| match n.inputs().iter().position(|&i| i == s) {
            Some(k) => format!("i{k}"),
            None => format!("n{}", s.index()),
        };
        let mut ports = vec!["clk : in std_logic".to_owned()];
        ports.extend((0..n.num_inputs()).map(|k| format!("i{k} : in std_logic")));
        ports.extend((0..n.num_outputs()).map(|k| format!("o{k} : out std_logic")));
        let mut src =
            format!("entity gen is\n  port (\n    {}\n  );\nend gen;\n", ports.join(";\n    "));
        src += "architecture rtl of gen is\n";
        let (mut comb, mut regs) = (Vec::new(), Vec::new());
        for (id, cell) in n.iter_cells() {
            let pins: Vec<String> = cell.pins().iter().map(|&p| name(p)).collect();
            let rhs = match cell.kind() {
                CellKind::Input => continue,
                CellKind::Const(v) => format!("'{}'", u8::from(v)),
                CellKind::Dff { init } => {
                    src += &format!("  signal {} : std_logic := '{}';\n", name(id), u8::from(init));
                    regs.push(format!("      {} <= {};", name(id), pins[0]));
                    continue;
                }
                CellKind::Gate(GateKind::Buf) => pins[0].clone(),
                CellKind::Gate(GateKind::Not) => format!("not {}", pins[0]),
                CellKind::Gate(GateKind::Mux) => {
                    format!("({} and {}) or (not {} and {})", pins[0], pins[2], pins[0], pins[1])
                }
                CellKind::Gate(kind) => pins.join(&format!(" {} ", kind.mnemonic())),
            };
            src += &format!("  signal {} : std_logic;\n", name(id));
            comb.push(format!("  {} <= {rhs};", name(id)));
        }
        for (k, (_, s)) in n.outputs().iter().enumerate() {
            comb.push(format!("  o{k} <= {};", name(*s)));
        }
        src += "begin\n";
        src += &comb.join("\n");
        src += "\n  process (clk)\n  begin\n    if rising_edge(clk) then\n";
        src += &regs.join("\n");
        src += "\n    end if;\n  end process;\nend rtl;\n";
        src
    }

    /// Shuffles the units of `src` that `movable` accepts among their
    /// own positions. A unit is a line plus the lines after it that
    /// `continues` claims (a BLIF cover's rows).
    fn shuffle(
        src: &str,
        seed: u64,
        movable: impl Fn(&str) -> bool,
        continues: impl Fn(&str) -> bool,
    ) -> String {
        let mut units: Vec<Vec<&str>> = Vec::new();
        for line in src.lines() {
            match units.last_mut() {
                Some(unit) if continues(line) => unit.push(line),
                _ => units.push(vec![line]),
            }
        }
        let slots: Vec<usize> = (0..units.len()).filter(|&u| movable(units[u][0])).collect();
        let mut moved: Vec<Vec<&str>> = slots.iter().map(|&u| units[u].clone()).collect();
        let mut rng = Rng(seed | 1);
        for i in (1..moved.len()).rev() {
            moved.swap(i, rng.below(i + 1));
        }
        for (&u, unit) in slots.iter().zip(moved) {
            units[u] = unit;
        }
        units.concat().join("\n") + "\n"
    }

    type Parse = fn(&str, Lowering) -> Result<Netlist, NetlistError>;

    /// Generated sources in every format, shuffled.
    fn shuffled_sources(n: &Netlist, seed: u64) -> Vec<(&'static str, Parse, String)> {
        let never = |_: &str| false;
        vec![
            (
                "bench",
                crate::bench::parse_with as Parse,
                shuffle(&crate::bench::emit(n), seed, |l| l.contains('='), never),
            ),
            (
                "snl",
                crate::text::parse_with,
                shuffle(
                    &crate::text::emit(n),
                    seed,
                    |l| ["gate ", "dff ", "const "].iter().any(|k| l.starts_with(k)),
                    never,
                ),
            ),
            (
                "blif",
                crate::blif::parse_with,
                shuffle(
                    &crate::blif::emit(n),
                    seed,
                    |l| l.starts_with(".names") || l.starts_with(".latch"),
                    |l| !l.starts_with('.') && !l.starts_with('#'),
                ),
            ),
            (
                "verilog",
                crate::vlog::parse_with,
                shuffle(
                    &crate::vlog::emit(n),
                    seed,
                    |l| {
                        l.starts_with("  ")
                            && !["  input", "  output", "  wire"].iter().any(|k| l.starts_with(k))
                    },
                    never,
                ),
            ),
            (
                "vhdl",
                crate::vhdl::parse_with,
                shuffle(
                    &vhdl_source(n),
                    seed,
                    // Concurrent assignments only, not registered ones.
                    |l| l.starts_with("  ") && !l.starts_with("   ") && l.contains("<="),
                    never,
                ),
            ),
        ]
    }

    #[test]
    fn worklist_lowering_matches_the_sweep_on_shuffled_sources() {
        for seed in 1..=6 {
            let n = random_netlist(seed, 20 + 30 * seed as usize);
            for (format, parse, src) in shuffled_sources(&n, seed) {
                let fresh = parse(&src, lower);
                assert!(fresh.is_ok(), "{format} seed {seed}: {fresh:?}\n{src}");
                assert_eq!(fresh, parse(&src, sweep_lower), "{format} seed {seed}");
            }
        }
    }

    #[test]
    fn worklist_lowering_matches_the_sweep_on_the_fixtures() {
        let fixtures: [(Parse, &str); 8] = [
            (crate::bench::parse_with, include_str!("../../../fixtures/s27.bench")),
            (crate::bench::parse_with, include_str!("../../../fixtures/s208a.bench")),
            (crate::bench::parse_with, include_str!("../../../fixtures/s344a.bench")),
            (crate::blif::parse_with, include_str!("../../../fixtures/s27.blif")),
            (crate::vlog::parse_with, include_str!("../../../fixtures/s27.v")),
            (crate::vlog::parse_with, include_str!("../../../fixtures/s208a.v")),
            (crate::vlog::parse_with, include_str!("../../../fixtures/s344a.v")),
            (crate::vhdl::parse_with, include_str!("../../../fixtures/b14c.vhd")),
        ];
        for (i, (parse, src)) in fixtures.into_iter().enumerate() {
            let fresh = parse(src, lower);
            assert!(fresh.is_ok(), "fixture {i}: {fresh:?}");
            assert_eq!(fresh, parse(src, sweep_lower), "fixture {i}");
        }
    }

    #[test]
    fn worklist_lowering_reports_the_sweeps_errors() {
        let cases = [
            // Unknown nets: in a gate (the first in file order wins), in
            // a flip-flop's data pin, and behind an output.
            "INPUT(a)\nOUTPUT(y)\ny = AND(x, a)\nz = OR(w, a)\n",
            "INPUT(a)\nOUTPUT(y)\ny = AND(z, a)\nz = OR(w, a)\nv = NOT(u)\n",
            "INPUT(a)\nOUTPUT(q)\nq = DFF(nope)\n",
            "INPUT(a)\nOUTPUT(nope)\ny = NOT(a)\n",
            // Combinational loops, with and without a tail.
            "INPUT(a)\nOUTPUT(y)\ny = AND(z, a)\nz = OR(y, a)\n",
            "INPUT(a)\nOUTPUT(t)\nt = NOT(y)\ny = AND(z, a)\nz = OR(y, a)\ns = BUF(s)\n",
            // Duplicates.
            "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n",
            "INPUT(a)\nOUTPUT(y)\nOUTPUT(y)\ny = NOT(a)\n",
        ];
        for src in cases {
            let fresh = crate::bench::parse_with(src, lower);
            assert!(fresh.is_err(), "{src}");
            assert_eq!(fresh, crate::bench::parse_with(src, sweep_lower), "{src}");
        }
    }

    #[test]
    fn sweep_removes_buffer_chains() {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let b1 = b.buf(a);
        let b2 = b.buf(b1);
        let g = b.not(b2);
        b.output("y", g);
        b.output("z", b2);
        let n = b.finish().unwrap();
        let (swept, removed) = sweep_buffers(&n);
        assert_eq!(removed, 2);
        assert_eq!(swept.num_gates(), 1);
        // The output that pointed at a buffer now points at the input.
        assert_eq!(swept.outputs()[1].1, swept.inputs()[0]);
    }

    #[test]
    fn sweep_rewires_dff_data_pins() {
        let mut b = NetlistBuilder::new("dffbuf");
        let q = b.dff(true);
        let inv = b.not(q);
        let buffered = b.buf(inv);
        b.connect_dff(q, buffered).unwrap();
        b.output("q", q);
        let n = b.finish().unwrap();
        let (swept, removed) = sweep_buffers(&n);
        assert_eq!(removed, 1);
        assert_eq!(swept.num_ffs(), 1);
        assert_eq!(swept.ff_init_values(), vec![true]);
        // The DFF's data pin now points directly at the inverter.
        let ff = swept.ff_signal(crate::FfIndex::new(0));
        let d = swept.cell(ff).pins()[0];
        assert!(matches!(swept.cell(d).kind(), CellKind::Gate(GateKind::Not)));
    }

    #[test]
    fn sweep_is_identity_without_buffers() {
        let mut b = NetlistBuilder::new("plain");
        let a = b.input("a");
        let g = b.not(a);
        b.output("y", g);
        let n = b.finish().unwrap();
        let (swept, removed) = sweep_buffers(&n);
        assert_eq!(removed, 0);
        assert_eq!(swept, n);
    }

    #[test]
    fn format_detection() {
        assert_eq!(
            SourceFormat::from_extension(Path::new("a/b/s27.bench")),
            Some(SourceFormat::Bench)
        );
        assert_eq!(
            SourceFormat::from_extension(Path::new("x.BLIF")),
            Some(SourceFormat::Blif)
        );
        assert_eq!(
            SourceFormat::from_extension(Path::new("x.snl")),
            Some(SourceFormat::Snl)
        );
        assert_eq!(
            SourceFormat::from_extension(Path::new("x.v")),
            Some(SourceFormat::Verilog)
        );
        assert_eq!(
            SourceFormat::from_extension(Path::new("x.VHD")),
            Some(SourceFormat::Vhdl)
        );
        assert_eq!(SourceFormat::from_extension(Path::new("x.edif")), None);
        assert_eq!(SourceFormat::sniff(".model m\n.end\n"), SourceFormat::Blif);
        assert_eq!(SourceFormat::sniff("# c\nINPUT(a)\n"), SourceFormat::Bench);
        assert_eq!(SourceFormat::sniff("g = AND(a, b)\n"), SourceFormat::Bench);
        assert_eq!(SourceFormat::sniff("model m\nend\n"), SourceFormat::Snl);
        assert_eq!(SourceFormat::sniff(""), SourceFormat::Snl);
        assert_eq!(SourceFormat::sniff("// hdl\nmodule m;\n"), SourceFormat::Verilog);
        assert_eq!(SourceFormat::sniff("module m (a);\n"), SourceFormat::Verilog);
        assert_eq!(SourceFormat::sniff("-- hdl\nentity e is\n"), SourceFormat::Vhdl);
        assert_eq!(SourceFormat::sniff("LIBRARY ieee;\n"), SourceFormat::Vhdl);
        assert_eq!(SourceFormat::sniff("entity e is\n"), SourceFormat::Vhdl);
        assert_eq!(SourceFormat::from_label("blif"), Some(SourceFormat::Blif));
        assert_eq!(SourceFormat::from_label("vhdl"), Some(SourceFormat::Vhdl));
        assert_eq!(SourceFormat::from_label("v"), Some(SourceFormat::Verilog));
        assert_eq!(SourceFormat::from_label("edif"), None);
    }

    #[test]
    fn import_str_reports_stats() {
        let src = "\
model t
input a
gate buf b1 a
gate not g b1
output y g
end
";
        let imp = import_str(src, SourceFormat::Snl).unwrap();
        assert_eq!(imp.stats.swept_buffers, 1);
        assert_eq!(imp.stats.parsed_cells, 3);
        assert_eq!(imp.stats.gates, 1);
        assert_eq!(imp.stats.inputs, 1);
        let text = imp.stats.to_string();
        assert!(text.contains("snl import"), "{text}");
        assert!(text.contains("1 buffers swept"), "{text}");
    }

    #[test]
    fn sweep_can_be_disabled() {
        let src = "model t\ninput a\ngate buf b1 a\noutput y b1\nend\n";
        let opts = ImportOptions { sweep_buffers: false };
        let imp = import_str_with(src, SourceFormat::Snl, opts).unwrap();
        assert_eq!(imp.stats.swept_buffers, 0);
        assert_eq!(imp.netlist.num_gates(), 1);
    }

    #[test]
    fn import_path_reports_io_errors() {
        let err = import_path("/definitely/not/a/real/file.bench").unwrap_err();
        assert!(matches!(err, ImportError::Io { .. }));
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn import_errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<ImportError>();
    }
}
