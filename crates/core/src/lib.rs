//! `seugrade` — fast transient fault grading based on autonomous
//! emulation.
//!
//! A from-scratch, software-complete reproduction of López-Ongil et al.,
//! *"Techniques for Fast Transient Fault Grading Based on Autonomous
//! Emulation"* (DATE 2005): SEU fault-injection campaigns for gate-level
//! circuits, executed three ways —
//!
//! - software fault simulation (serial and 64-way bit-parallel), the
//!   paper's baseline, scaled out by the sharded multi-threaded
//!   `seugrade-engine` campaign runtime;
//! - a host-controlled emulation model (Civera et al. \[2\]), the paper's
//!   prior art;
//! - the **autonomous emulation system** with its three instrumentation
//!   techniques (mask-scan, state-scan, time-multiplexed), including real
//!   netlist transforms, cycle-accurate campaign timing, RAM planning and
//!   FPGA resource estimation.
//!
//! This facade crate re-exports the workspace and adds the
//! [`experiments`] module, which regenerates every table and figure of
//! the paper, plus plain-text [`tables`] rendering.
//!
//! Seven runnable examples under the repository's `examples/` directory
//! (`quickstart`, `viper_campaign`, `technique_tradeoffs`,
//! `custom_circuit`, `import_netlist`, `hardening_loop`, `waveforms`)
//! walk the public API end to end; start with
//! `cargo run --release --example quickstart`.
//!
//! # Quickstart
//!
//! ```
//! use seugrade::prelude::*;
//!
//! // A circuit (8-bit LFSR), a test bench, a campaign:
//! let circuit = generators::lfsr(8, &[7, 5, 4, 3]);
//! let tb = Testbench::constant_low(0, 32);
//! let campaign = AutonomousCampaign::new(&circuit, &tb);
//!
//! // Grade with the paper's fastest technique:
//! let report = campaign.run(Technique::TimeMux);
//! println!("{report}");
//! assert_eq!(report.summary.total(), 8 * 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod paper;
pub mod tables;

/// One-stop imports for applications.
pub mod prelude {
    pub use seugrade_circuits::{fixtures, generators, registry, small, stimuli, viper};
    pub use seugrade_emulation::campaign::{
        AutonomousCampaign, CampaignSink, EmulationReport, StreamedCampaign,
        StreamedCampaignStatus, Technique,
    };
    pub use seugrade_engine::{
        CampaignPlan, CampaignPlanBuilder, CampaignRun, CampaignState, CancelToken, Checkpoint,
        Engine, EngineError, EngineStats, FaultPlan, FaultSource, Fingerprint, PersistentSink,
        ProgressCounter, ProgressEvent, ProgressHook, ResumableRun, ResumeError, ResumeOptions,
        ShardPolicy, StreamAccumulator, StreamedRun, VerdictSink, CKPT_SCHEMA,
        DEFAULT_CHECKPOINT_EVERY,
    };
    pub use seugrade_emulation::controller::{CampaignTiming, ClockHz, TimingConfig};
    pub use seugrade_emulation::hostlink::HostLinkModel;
    pub use seugrade_emulation::instrument;
    pub use seugrade_faultsim::sampling::{estimate_classes, wilson_interval, ClassEstimate};
    pub use seugrade_faultsim::{
        multi, report, Collapse, Fault, FaultClass, FaultList, FaultOutcome, GradeScratch,
        Grader, GradingSummary, MultiFault, Oracle, VerdictWindow, ALIAS_WINDOW,
        DEFAULT_WINDOW_CACHE_SPANS,
    };
    pub use seugrade_harden::{dwc, tmr};
    pub use seugrade_netlist::{
        import, FfIndex, GateKind, ImportError, ImportOptions, ImportStats, Imported, Netlist,
        NetlistBuilder, NetlistError, SigId, SourceFormat,
    };
    pub use seugrade_rtl::{Reg, RtlBuilder, Word};
    pub use seugrade_serve::{
        Client, ClientError, CircuitSource, JobSpec, JobState, Server, ServerConfig, SERVE_SCHEMA,
    };
    pub use seugrade_sim::{
        equiv_check, CompiledSim, Counterexample, EventSim, GoldenTrace, Kernel, SplitMix64,
        Testbench, TracePolicy, TraceWindow,
    };
    pub use seugrade_techmap::{map_luts, BramEstimate, MapperConfig, ResourceReport};
}

pub use prelude::*;
